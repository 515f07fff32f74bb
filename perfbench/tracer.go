package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
)

// sampleEvery is the sampling period of the in-situ workload timers: a
// clock read costs about as much as the calls it would time, so only
// every sampleEvery-th call is timed while every call is counted.
const sampleEvery = 64

// maxCaptured bounds the sector addresses captured per kind for the
// isolated layer drivers.
const maxCaptured = 1 << 14

// span is one timed call the benchmark made into a layer.
type span struct {
	Kind   string `json:"kind"` // "span"
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// leafCount aggregates the sampled calls of one cell into one layer.
type leafCount struct {
	Kind      string `json:"kind"` // "count"
	Cell      int    `json:"cell"`
	Name      string `json:"name"`
	Calls     uint64 `json:"calls"`
	Sampled   uint64 `json:"sampled"`
	SampledNs int64  `json:"sampled_ns"` // net of the clock's own cost
}

// tracer keeps the traced run's spans and counts in memory until the
// run ends.
type tracer struct {
	epoch   time.Time
	clockNs int64 // cost of one timed sample's clock reads
	spans   []span
	counts  []leafCount
	cur     *tracedWorkload
	capture *capture // the first cell's issued stream
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), clockNs: clockCost(), capture: &capture{}}
}

// clockCost is the median cost of the time.Now/time.Since pair a
// sampled call adds, subtracted from every sample.
func clockCost() int64 {
	const n = 2001
	costs := make([]int64, n)
	for i := range costs {
		t := time.Now()
		costs[i] = time.Since(t).Nanoseconds()
	}
	sort.Slice(costs, func(a, b int) bool { return costs[a] < costs[b] })
	return costs[n/2]
}

func (tr *tracer) add(parent, cell int, name string, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		Kind: "span", ID: id, Parent: parent, Cell: cell, Name: name,
		Start: start.Sub(tr.epoch).Nanoseconds(), End: end.Sub(tr.epoch).Nanoseconds(),
	})
	return id
}

// wrap interposes the timing wrapper on a cell's workload.
func (tr *tracer) wrap(wl gpusim.Workload) (gpusim.Workload, error) {
	cw, ok := wl.(gpusim.CheckpointableWorkload)
	if !ok {
		return nil, fmt.Errorf("trace: workload %s is not checkpointable", wl.Name())
	}
	sc, ok := wl.(secmem.StreamCursorSource)
	if !ok {
		return nil, fmt.Errorf("trace: workload %s declares no stream cursor", wl.Name())
	}
	tr.cur = &tracedWorkload{CheckpointableWorkload: cw, streams: sc, clockNs: tr.clockNs}
	return tr.cur, nil
}

// beforeRun installs the issue tap on the first traced cell, whose
// issued stream feeds the isolated layer drivers.
func (tr *tracer) beforeRun(g *gpusim.GPU, spec cellSpec) {
	if !tr.capture.armed {
		tr.capture.armed = true
		tr.capture.spec = spec
		g.SetIssueTap(tr.capture.observe)
	}
}

// cellSpans records one cell's spans from the timestamps runCell took:
// start, after ByName, after GetSeeded, after gpusim.New, after Run,
// after the checks.
func (tr *tracer) cellSpans(cell int, t [6]time.Time) {
	root := tr.add(0, cell, "cell", t[0], t[5])
	setup := tr.add(root, cell, "setup", t[0], t[3])
	tr.add(setup, cell, "secmem.ByName", t[0], t[1])
	tr.add(setup, cell, "workload.GetSeeded", t[1], t[2])
	tr.add(setup, cell, "gpusim.New", t[2], t[3])
	tr.add(root, cell, "gpusim.Run", t[3], t[4])
	tr.add(root, cell, "check", t[4], t[5])
	if w := tr.cur; w != nil {
		tr.counts = append(tr.counts,
			leafCount{Kind: "count", Cell: cell, Name: "workload.Next", Calls: w.next.calls, Sampled: w.next.sampled, SampledNs: w.next.ns},
			leafCount{Kind: "count", Cell: cell, Name: "workload.MemValue", Calls: w.mem.calls, Sampled: w.mem.sampled, SampledNs: w.mem.ns})
		tr.cur = nil
	}
}

// spanNs returns the durations of every span with the given name.
func (tr *tracer) spanNs(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// leafNs returns the mean sampled ns per call of a leaf count.
func (tr *tracer) leafNs(name string) float64 {
	var n uint64
	var ns int64
	for _, c := range tr.counts {
		if c.Name == name {
			n += c.Sampled
			ns += c.SampledNs
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// write stores the spans and counts as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range tr.counts {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// leafTimer counts calls and times every sampleEvery-th one.
type leafTimer struct {
	calls, sampled uint64
	ns             int64
}

// tracedWorkload times the simulator's calls into the workload layer.
// It forwards Cursor/RestoreCursor (by embedding) and StreamCursor, so
// gpusim sees the same optional interfaces the bare workload offers and
// checkpointing and the mgx stream contract behave identically. It is
// only used with sequential partitions: its counters are unsynchronized.
type tracedWorkload struct {
	gpusim.CheckpointableWorkload
	streams   secmem.StreamCursorSource
	clockNs   int64
	next, mem leafTimer
}

// StreamCursor forwards the mgx stream contract.
func (w *tracedWorkload) StreamCursor(a geom.Addr) (uint64, bool) {
	return w.streams.StreamCursor(a)
}

// Next implements gpusim.Workload.
func (w *tracedWorkload) Next(warp int) (gpusim.Inst, bool) {
	w.next.calls++
	if w.next.calls%sampleEvery != 0 {
		return w.CheckpointableWorkload.Next(warp)
	}
	t := time.Now()
	inst, ok := w.CheckpointableWorkload.Next(warp)
	w.next.ns += max(time.Since(t).Nanoseconds()-w.clockNs, 0)
	w.next.sampled++
	return inst, ok
}

// MemValue implements gpusim.Workload.
func (w *tracedWorkload) MemValue(a geom.Addr) uint32 {
	w.mem.calls++
	if w.mem.calls%sampleEvery != 0 {
		return w.CheckpointableWorkload.MemValue(a)
	}
	t := time.Now()
	v := w.CheckpointableWorkload.MemValue(a)
	w.mem.ns += max(time.Since(t).Nanoseconds()-w.clockNs, 0)
	w.mem.sampled++
	return v
}

// capture records the distinct sectors of each issued load and store
// of one cell.
type capture struct {
	armed         bool
	spec          cellSpec
	loads, stores []geom.Addr
}

func (c *capture) observe(_ int, inst gpusim.Inst) {
	var dst *[]geom.Addr
	switch inst.Kind {
	case gpusim.Load:
		dst = &c.loads
	case gpusim.Store:
		dst = &c.stores
	default:
		return
	}
	start := len(*dst)
	for _, a := range inst.Addrs {
		if len(*dst) >= maxCaptured {
			return
		}
		s := geom.SectorAddr(a)
		dup := false
		for _, p := range (*dst)[start:] {
			if p == s {
				dup = true
				break
			}
		}
		if !dup {
			*dst = append(*dst, s)
		}
	}
}
