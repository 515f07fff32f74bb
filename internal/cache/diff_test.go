package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// refCache is the earlier cache implementation, kept as the reference
// the slab-backed MSHR file and tag array are checked against: per-set
// line slices scanned for valid tags, per-set lists of in-flight MSHR
// entries, and one growable waiter slice per entry.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	setMask  geom.Addr
	lruClock uint64
	inflight [][]*refMSHR
	live     int
	gen      uint64
	Stats    stats.CacheStats
}

type refLine struct {
	tag          geom.Addr
	valid, dirty geom.SectorMask
	lru          uint64
}

type refMSHR struct {
	addr             geom.Addr
	pending, arrived geom.SectorMask
	gen              uint64
	waiters          []sim.Call
}

type refHandle struct {
	e   *refMSHR
	gen uint64
}

func newRef(cfg Config) *refCache {
	n := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	r := &refCache{cfg: cfg, sets: make([][]refLine, n), setMask: geom.Addr(n - 1), inflight: make([][]*refMSHR, n)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) setIndex(block geom.Addr) geom.Addr {
	return (block / geom.Addr(r.cfg.BlockSize)) & r.setMask
}

func (r *refCache) find(block geom.Addr) *refLine {
	set := r.sets[r.setIndex(block)]
	for i := range set {
		if set[i].valid != 0 && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) Lookup(addr geom.Addr, mask geom.SectorMask, write bool, onDone *sim.Call) (Outcome, geom.SectorMask, refHandle) {
	block := addr &^ geom.Addr(r.cfg.BlockSize-1)
	ln := r.find(block)
	if ln != nil && ln.valid&mask == mask {
		r.lruClock++
		ln.lru = r.lruClock
		if write {
			ln.dirty |= mask
		}
		r.Stats.Hits++
		return Hit, 0, refHandle{}
	}
	var present geom.SectorMask
	if ln != nil {
		present = ln.valid
		r.lruClock++
		ln.lru = r.lruClock
	}
	need := mask &^ present
	for _, m := range r.inflight[r.setIndex(block)] {
		if m.addr != block {
			continue
		}
		if onDone != nil {
			m.waiters = append(m.waiters, *onDone)
		}
		still := need &^ m.pending
		if still == 0 {
			r.Stats.MSHRMerges++
			return MissMerged, 0, refHandle{m, m.gen}
		}
		m.pending |= still
		r.Stats.Misses++
		return Miss, still, refHandle{m, m.gen}
	}
	if r.live >= r.cfg.MSHRs {
		return MissNoMSHR, need, refHandle{}
	}
	r.gen++
	m := &refMSHR{addr: block, pending: need, gen: r.gen}
	si := r.setIndex(block)
	r.inflight[si] = append(r.inflight[si], m)
	r.live++
	if onDone != nil {
		m.waiters = append(m.waiters, *onDone)
	}
	r.Stats.Misses++
	return Miss, need, refHandle{m, m.gen}
}

func (r *refCache) FillSectors(h refHandle, mask geom.SectorMask, markDirty bool) (Eviction, bool, []sim.Call) {
	e := h.e
	if e == nil || e.gen != h.gen {
		return Eviction{}, false, nil
	}
	e.arrived |= mask & e.pending
	ev := r.install(e.addr, mask&e.pending, markDirty)
	if e.arrived != e.pending {
		return ev, false, nil
	}
	si := r.setIndex(e.addr)
	list := r.inflight[si]
	for i, m := range list {
		if m == e {
			r.inflight[si] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	r.live--
	e.gen = 0
	return ev, true, e.waiters
}

func (r *refCache) install(block geom.Addr, mask geom.SectorMask, dirty bool) Eviction {
	r.lruClock++
	if ln := r.find(block); ln != nil {
		ln.valid |= mask
		if dirty {
			ln.dirty |= mask
		}
		ln.lru = r.lruClock
		return Eviction{}
	}
	set := r.sets[r.setIndex(block)]
	victim := &set[0]
	for i := range set {
		if set[i].valid == 0 {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	var ev Eviction
	if victim.valid != 0 {
		r.Stats.Evictions++
		if victim.dirty != 0 {
			r.Stats.DirtyEvictions++
		}
		ev = Eviction{Addr: victim.tag, Valid: victim.valid, Dirty: victim.dirty}
	}
	*victim = refLine{tag: block, valid: mask, lru: r.lruClock}
	if dirty {
		victim.dirty = mask
	}
	return ev
}

func (r *refCache) MarkDirty(addr geom.Addr, mask geom.SectorMask) bool {
	ln := r.find(addr &^ geom.Addr(r.cfg.BlockSize-1))
	if ln == nil || ln.valid&mask != mask {
		return false
	}
	ln.dirty |= mask
	return true
}

func (r *refCache) Invalidate(addr geom.Addr) geom.SectorMask {
	if ln := r.find(addr &^ geom.Addr(r.cfg.BlockSize-1)); ln != nil {
		d := ln.dirty
		ln.valid, ln.dirty, ln.tag = 0, 0, 0
		return d
	}
	return 0
}

func (r *refCache) snapshot() []byte {
	enc := checkpoint.NewEncoder()
	enc.U32(uint32(len(r.sets)))
	enc.U32(uint32(r.cfg.Ways))
	enc.U64(r.lruClock)
	for _, set := range r.sets {
		for _, ln := range set {
			enc.U64(uint64(ln.tag))
			enc.U8(uint8(ln.valid))
			enc.U8(uint8(ln.dirty))
			enc.U64(ln.lru)
		}
	}
	enc.U64(r.Stats.Hits)
	enc.U64(r.Stats.Misses)
	enc.U64(r.Stats.MSHRMerges)
	enc.U64(r.Stats.Evictions)
	enc.U64(r.Stats.DirtyEvictions)
	return enc.Data()
}

func (r *refCache) restore(data []byte) {
	dec := checkpoint.NewDecoder(data)
	dec.U32()
	dec.U32()
	r.lruClock = dec.U64()
	for _, set := range r.sets {
		for i := range set {
			set[i] = refLine{tag: geom.Addr(dec.U64()), valid: geom.SectorMask(dec.U8()), dirty: geom.SectorMask(dec.U8()), lru: dec.U64()}
		}
	}
	r.Stats = stats.CacheStats{Hits: dec.U64(), Misses: dec.U64(), MSHRMerges: dec.U64(), Evictions: dec.U64(), DirtyEvictions: dec.U64()}
}

// TestMatchesReference drives the cache and the reference through the
// same random operation stream — lookups with and without waiters,
// partial, extending and stale fills, inserts, dirty marks,
// invalidations and snapshot/restore round trips — and requires equal
// outcomes, need masks, evictions, waiter order and state throughout.
func TestMatchesReference(t *testing.T) {
	geoms := []Config{
		{Name: "meta", SizeBytes: 4 * 8 * 128, BlockSize: 128, Ways: 8, MSHRs: 256},
		{Name: "meta32", SizeBytes: 4 * 8 * 32, BlockSize: 32, Ways: 8, MSHRs: 256},
		{Name: "tight", SizeBytes: 4 * 4 * 128, BlockSize: 128, Ways: 4, MSHRs: 4},
	}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				diffRun(t, cfg, seed, 20000)
			})
		}
	}
}

// fillPair is one memory request outstanding on both caches.
type fillPair struct {
	got  MSHR
	want refHandle
	need geom.SectorMask
}

func diffRun(t *testing.T, cfg Config, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	c, r := MustNew(cfg), newRef(cfg)
	var gotRan, wantRan []uint64
	gotH := func(a uint64) { gotRan = append(gotRan, a) }
	wantH := func(a uint64) { wantRan = append(wantRan, a) }
	var fills, stale []fillPair
	blocks := 24 * len(c.lines) / cfg.Ways
	sectors := cfg.BlockSize / geom.SectorSize
	randMask := func() geom.SectorMask {
		for {
			if m := geom.SectorMask(rng.Intn(1 << sectors)); m != 0 {
				return m
			}
		}
	}
	randAddr := func() geom.Addr {
		return geom.Addr(rng.Intn(blocks)*cfg.BlockSize + rng.Intn(sectors)*geom.SectorSize)
	}
	op := 0
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("op %d %s: got %v, want %v", op, what, got, want)
	}
	var counts [8]int // lookups with a waiter, extensions, merges, no-MSHR, partial fills, completions, stale fills, snapshots
	fill := func(i int, mask geom.SectorMask, dirty bool) {
		t.Helper()
		f := fills[i]
		fills = append(fills[:i], fills[i+1:]...)
		ev, done, ws := c.FillSectors(f.got, mask, dirty)
		wev, wdone, wws := r.FillSectors(f.want, mask, dirty)
		if ev != wev || done != wdone || len(ws) != len(wws) {
			fail("fill", []any{ev, done, len(ws)}, []any{wev, wdone, len(wws)})
		}
		if !done {
			return
		}
		counts[5]++
		stale = append(stale, f)
		from := len(gotRan)
		for _, w := range ws {
			w.Run()
		}
		for _, w := range wws {
			w.Run()
		}
		if !equalIDs(gotRan[from:], wantRan[from:]) {
			fail("waiter order", gotRan[from:], wantRan[from:])
		}
	}
	var id uint64
	for ; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 45:
			a, mask, write := randAddr(), randMask(), rng.Intn(4) == 0
			var gw, ww *sim.Call
			if rng.Intn(5) != 0 {
				id++
				gw, ww = &sim.Call{H: gotH, Arg: id}, &sim.Call{H: wantH, Arg: id}
				counts[0]++
			}
			live := c.InflightMisses()
			out, need, m := c.Lookup(a, mask, write, gw)
			wout, wneed, wm := r.Lookup(a, mask, write, ww)
			if out != wout || need != wneed {
				fail("lookup", []any{out, need}, []any{wout, wneed})
			}
			switch {
			case out == Miss && c.InflightMisses() == live:
				counts[1]++
			case out == MissMerged:
				counts[2]++
			case out == MissNoMSHR:
				counts[3]++
			}
			if out == Miss {
				fills = append(fills, fillPair{m, wm, need})
			}
		case k < 75 && len(fills) > 0:
			i := rng.Intn(len(fills))
			mask := fills[i].need
			switch rng.Intn(3) {
			case 0: // part of this request lands now, the rest later
				if part := mask & randMask(); part != 0 && part != mask {
					f := fills[i]
					fills = append(fills, fillPair{f.got, f.want, f.need &^ part})
					mask = part
					counts[4]++
				}
			case 1: // sectors beyond the request, which only count if pending
				mask |= randMask()
			}
			fill(i, mask, rng.Intn(3) == 0)
		case k < 80 && len(stale) > 0:
			f := stale[rng.Intn(len(stale))]
			ev, done, ws := c.FillSectors(f.got, f.need, false)
			if ev != (Eviction{}) || done || ws != nil {
				fail("stale fill", []any{ev, done, len(ws)}, "a no-op")
			}
			counts[6]++
		case k < 88:
			a, mask, dirty := randAddr(), randMask(), rng.Intn(2) == 0
			if ev, wev := c.Insert(a, mask, dirty), r.install(a&^geom.Addr(cfg.BlockSize-1), mask, dirty); ev != wev {
				fail("insert", ev, wev)
			}
		case k < 93:
			a, mask := randAddr(), randMask()
			if got, want := c.MarkDirty(a, mask), r.MarkDirty(a, mask); got != want {
				fail("mark dirty", got, want)
			}
		case k < 99:
			a := randAddr()
			if got, want := c.Invalidate(a), r.Invalidate(a); got != want {
				fail("invalidate", got, want)
			}
		default:
			// Drain every outstanding request in random order, then round
			// trip both caches through the snapshot.
			for len(fills) > 0 {
				i := rng.Intn(len(fills))
				fill(i, fills[i].need|randMask(), false)
			}
			enc := checkpoint.NewEncoder()
			if err := c.Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			data := enc.Data()
			if !bytes.Equal(data, r.snapshot()) {
				fail("snapshot", "different bytes", "the reference's")
			}
			if err := c.Restore(checkpoint.NewDecoder(data)); err != nil {
				t.Fatal(err)
			}
			r.restore(data)
			counts[7]++
		}
		a := randAddr()
		var wantValid, wantDirty geom.SectorMask
		if ln := r.find(a &^ geom.Addr(cfg.BlockSize-1)); ln != nil {
			wantValid, wantDirty = ln.valid, ln.dirty
		}
		if c.Probe(a) != wantValid || c.DirtyMask(a) != wantDirty {
			fail("probe", []any{c.Probe(a), c.DirtyMask(a)}, []any{wantValid, wantDirty})
		}
		if c.InflightMisses() != r.live || c.Stats != r.Stats {
			fail("state", []any{c.InflightMisses(), c.Stats}, []any{r.live, r.Stats})
		}
	}
	for i, n := range counts {
		// The roomy geometries never run out of MSHRs, and one-sector
		// blocks neither extend misses nor fill in parts.
		skip := (i == 3 && cfg.MSHRs > blocks) || ((i == 1 || i == 4) && sectors == 1)
		if n == 0 && !skip {
			t.Errorf("operation class %d never exercised: %v", i, counts)
		}
	}
}
