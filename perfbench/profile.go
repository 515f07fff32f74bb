package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// shareBuckets are the host.share.<bucket> metrics: the simulator's
// packages, plus map operations, garbage collection with allocation, the
// rest of the runtime, and everything else.
var shareBuckets = []string{
	"secmem", "cache", "crypto", "bmt", "counters", "dram", "sim", "gpusim",
	"workload", "valmodel", "valcache", "dense", "maps", "gc", "runtime", "other",
}

// gcFrames mark a sample as garbage-collection or allocation work
// wherever they appear on its stack.
var gcFrames = map[string]bool{
	"runtime.mallocgc":       true,
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
}

const modulePrefix = "github.com/plutus-gpu/plutus/internal/"

// bucketOf files a sample by its stack (leaf first).
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, modulePrefix):
		pkg := leaf[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range shareBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	case strings.HasPrefix(leaf, "crypto/"):
		return "crypto"
	case strings.HasPrefix(leaf, "runtime.map"), strings.HasPrefix(leaf, "internal/runtime/maps."):
		return "maps"
	case strings.HasPrefix(leaf, "runtime."), strings.HasPrefix(leaf, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a gzipped CPU profile as runtime/pprof writes it and
// returns each bucket's share of the sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	totals := map[string]float64{}
	var all float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				if name, ok := p.funcNames[fid]; ok {
					stack = append(stack, p.strings[name])
				}
			}
		}
		totals[bucketOf(stack)] += v
		all += v
	}
	out := map[string]float64{}
	for _, b := range shareBuckets {
		if all > 0 {
			out[b] = totals[b] / all
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

// profile holds the parts of profile.proto the shares need.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// field is one decoded protobuf field.
type field struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

// fields decodes a protobuf message's top-level fields.
func fields(buf []byte) ([]field, error) {
	var out []field
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errProto
		}
		buf = buf[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(buf)
			if n <= 0 {
				return nil, errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, errProto
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, errProto
			}
			buf = buf[4:]
		default:
			return nil, fmt.Errorf("%w: wire type %d", errProto, f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, sf := range sub {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					lines, err := fields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, ln := range lines {
						if ln.num == 1 {
							funcs = append(funcs, ln.v)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			sub, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	for _, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("%w: function name index %d", errProto, name)
		}
	}
	return p, nil
}
