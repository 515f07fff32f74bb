package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: 2048, BlockSize: 128, Ways: 4, MSHRs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "sector", SizeBytes: 1024, BlockSize: 48, Ways: 2, MSHRs: 1},
		{Name: "div", SizeBytes: 1000, BlockSize: 128, Ways: 4, MSHRs: 1},
		{Name: "pow2", SizeBytes: 128 * 4 * 3, BlockSize: 128, Ways: 4, MSHRs: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q validated, want error", cfg.Name)
		}
	}
	good := Config{Name: "ok", SizeBytes: 2048, BlockSize: 32, Ways: 4, MSHRs: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestMissFillHit(t *testing.T) {
	c := small(t)
	mask := c.MaskFor(0x1000)
	out, need, m := c.Lookup(0x1000, mask, false, nil)
	if out != Miss || need != mask || m == (MSHR{}) {
		t.Fatalf("first lookup: %v need=%04b", out, need)
	}
	ev, _ := c.Fill(m, false)
	if ev.Valid != 0 {
		t.Fatalf("fill into empty cache evicted %+v", ev)
	}
	out, _, _ = c.Lookup(0x1000, mask, false, nil)
	if out != Hit {
		t.Fatalf("lookup after fill: %v, want hit", out)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestSectoredPartialPresence(t *testing.T) {
	c := small(t)
	// Fetch sector 0 only.
	_, _, m := c.Lookup(0x2000, 0b0001, false, nil)
	c.Fill(m, false)
	// Sector 1 of the same block should miss with need = sector 1 only.
	out, need, m2 := c.Lookup(0x2020, 0b0010, false, nil)
	if out != Miss || need != 0b0010 {
		t.Fatalf("partial lookup: %v need=%04b, want miss 0b0010", out, need)
	}
	c.Fill(m2, false)
	if got := c.Probe(0x2000); got != 0b0011 {
		t.Fatalf("Probe = %04b, want 0b0011", got)
	}
}

func TestMSHRMerging(t *testing.T) {
	c := small(t)
	done := 0
	waiter := &sim.Call{Fn: func() { done++ }}
	_, _, m := c.Lookup(0x3000, 0b0001, false, waiter)
	out, _, m2 := c.Lookup(0x3000, 0b0001, false, waiter)
	if out != MissMerged || m2 != m {
		t.Fatalf("second lookup: %v, want merged into same MSHR", out)
	}
	// A different sector of the same block extends the MSHR.
	out, need, m3 := c.Lookup(0x3020, 0b0010, false, waiter)
	if out != Miss || need != 0b0010 || m3 != m {
		t.Fatalf("extend lookup: %v need=%04b", out, need)
	}
	_, waiters := c.Fill(m, false)
	for _, w := range waiters {
		w.Run()
	}
	if done != 3 {
		t.Fatalf("waiters run = %d, want 3", done)
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", c.Stats.MSHRMerges)
	}
}

func TestMSHRExhaustion(t *testing.T) {
	c := small(t)
	for i := 0; i < 4; i++ {
		out, _, _ := c.Lookup(geom.Addr(0x4000+i*128), 0b0001, false, nil)
		if out != Miss {
			t.Fatalf("lookup %d: %v", i, out)
		}
	}
	out, _, m := c.Lookup(0x9000, 0b0001, false, nil)
	if out != MissNoMSHR || m != (MSHR{}) {
		t.Fatalf("5th miss: %v, want MissNoMSHR", out)
	}
}

func TestEvictionLRUAndDirty(t *testing.T) {
	c := small(t)
	// 4 sets; blocks mapping to set 0 are 0, 4*128, 8*128, ...
	addrs := []geom.Addr{0, 512, 1024, 1536, 2048}
	for _, a := range addrs[:4] {
		_, _, m := c.Lookup(a, 0b1111, true, nil)
		c.Fill(m, true) // dirty fill
	}
	// Touch addr 0 so it is MRU; victim should be 512.
	c.Lookup(0, 0b0001, false, nil)
	_, _, m := c.Lookup(addrs[4], 0b0001, false, nil)
	ev, _ := c.Fill(m, false)
	if ev.Valid != 0b1111 || ev.Addr != 512 {
		t.Fatalf("eviction = %+v, want victim 512", ev)
	}
	if ev.Dirty != 0b1111 {
		t.Fatalf("victim dirty = %04b, want all", ev.Dirty)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.Stats.DirtyEvictions)
	}
}

// A completed MSHR entry returns to the pool and is reused by the next
// miss, and its waiter nodes return to the slab; a late fill through the
// old handle must not touch the new incarnation or its waiters.
func TestRecycledMSHRIgnoresStaleFill(t *testing.T) {
	c := small(t)
	_, _, old := c.Lookup(0x1000, 0b0001, false, nil)
	if _, done, _ := c.FillSectors(old, 0b0001, false); !done {
		t.Fatal("single-sector fill did not complete its MSHR")
	}
	ran := 0
	out, _, cur := c.Lookup(0x2000, 0b0001, false, &sim.Call{Fn: func() { ran++ }})
	if out != Miss || cur.e != old.e {
		t.Fatalf("second miss: %v, want Miss on the recycled entry", out)
	}
	c.Lookup(0x2000, 0b0001, false, &sim.Call{Fn: func() { ran++ }})
	ev, done, waiters := c.FillSectors(old, 0b0001, false)
	if ev != (Eviction{}) || done || waiters != nil {
		t.Fatalf("stale fill acted: ev=%+v done=%v waiters=%d", ev, done, len(waiters))
	}
	if c.Probe(0x2000) != 0 || c.InflightMisses() != 1 {
		t.Fatalf("stale fill disturbed the live miss: probe=%04b inflight=%d", c.Probe(0x2000), c.InflightMisses())
	}
	if _, w := c.Fill(old, false); w != nil {
		t.Fatal("Fill through a stale handle returned waiters")
	}
	_, done, waiters = c.FillSectors(cur, 0b0001, false)
	if !done || len(waiters) != 2 {
		t.Fatalf("live fill: done=%v waiters=%d", done, len(waiters))
	}
	for _, w := range waiters {
		w.Run()
	}
	if ran != 2 {
		t.Fatalf("live waiters ran %d times, want 2", ran)
	}
}

// Waiters run from a completed MSHR may miss again and so reincarnate
// the same pooled entry, on waiter nodes the completion just freed; what
// they register there must never land in the waiter slice still being
// iterated.
func TestWaitersRegisteredDuringWaiterLoopDoNotAlias(t *testing.T) {
	c := MustNew(Config{Name: "one", SizeBytes: 2048, BlockSize: 128, Ways: 4, MSHRs: 1})
	var order []uint64
	record := func(id uint64) { order = append(order, id) }
	// Grow the waiter slab and the completion buffer first, so the
	// reincarnation reuses freed nodes instead of growing new ones.
	for round := 0; round < 2; round++ {
		_, _, m := c.Lookup(0x1000, 0b0001, false, nil)
		for k := 0; k < 8; k++ {
			c.Lookup(0x1000, 0b0001, false, &sim.Call{H: record})
		}
		c.FillSectors(m, 0b0001, false)
		c.Invalidate(0x1000)
	}
	order = nil

	_, _, m := c.Lookup(0x1000, 0b0001, false, nil)
	for id := uint64(1); id <= 3; id++ {
		c.Lookup(0x1000, 0b0001, false, &sim.Call{H: record, Arg: id})
	}
	_, done, waiters := c.FillSectors(m, 0b0001, false)
	if !done {
		t.Fatal("fill did not complete")
	}
	var next MSHR
	for i, w := range waiters {
		w.Run()
		if i == 0 {
			// The first waiter misses on another block: with one MSHR,
			// the pool must hand back the entry just completed.
			_, _, next = c.Lookup(0x2000, 0b0001, false, &sim.Call{H: record, Arg: 100})
			c.Lookup(0x2000, 0b0001, false, &sim.Call{H: record, Arg: 101})
			if next.e != m.e {
				t.Fatal("the single pooled entry was not reused")
			}
		}
	}
	if want := []uint64{1, 2, 3}; !equalIDs(order, want) {
		t.Fatalf("waiter loop ran %v, want %v", order, want)
	}
	_, _, waiters = c.FillSectors(next, 0b0001, false)
	for _, w := range waiters {
		w.Run()
	}
	if want := []uint64{1, 2, 3, 100, 101}; !equalIDs(order, want) {
		t.Fatalf("after the second fill ran %v, want %v", order, want)
	}
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A warmed cache's miss/fill cycle — MSHR allocation, waiter
// registration, completion and eviction — allocates nothing.
func TestMissFillSteadyStateZeroAllocs(t *testing.T) {
	c := small(t)
	waiter := &sim.Call{H: func(uint64) {}}
	cycle := func() {
		for i := 0; i < 64; i++ {
			a := geom.Addr(i * 512)
			_, _, m := c.Lookup(a, c.MaskFor(a), false, waiter)
			c.Lookup(a, c.MaskFor(a), false, waiter)
			c.FillSectors(m, c.MaskFor(a), i%2 == 0)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("steady-state miss/fill allocates %.1f times per 64 misses", got)
	}
}

// A metadata-cache geometry with hundreds of misses in flight at once,
// each merging a varying number of waiters and some extended by a
// second sector, allocates nothing once its MSHR chunks, index and
// waiter slab have grown to the peak.
func TestMergingWaitersSteadyStateZeroAllocs(t *testing.T) {
	c := MustNew(Config{Name: "meta", SizeBytes: 4 * 8 * 128, BlockSize: 128, Ways: 8, MSHRs: 256})
	ran := 0
	waiter := &sim.Call{H: func(uint64) { ran++ }}
	ms := make([]MSHR, 0, 256)
	round := 0
	cycle := func() {
		round++
		ms = ms[:0]
		for i := 0; i < 256; i++ {
			a := geom.Addr((round*256 + i) * 128)
			_, _, m := c.Lookup(a, 0b0001, false, waiter)
			for k := 0; k < i%7; k++ {
				c.Lookup(a, 0b0001, false, waiter)
			}
			if i%3 == 0 {
				c.Lookup(a+32, 0b0010, false, waiter)
			}
			ms = append(ms, m)
		}
		for i := len(ms) - 1; i >= 0; i-- {
			_, done, waiters := c.FillSectors(ms[i], 0b0011, false)
			if !done {
				t.Fatal("fill of every requested sector did not complete")
			}
			for _, w := range waiters {
				w.Run()
			}
		}
	}
	cycle()
	if got := testing.AllocsPerRun(10, cycle); got != 0 {
		t.Fatalf("steady-state merging misses allocate %.1f times per 256", got)
	}
	if c.InflightMisses() != 0 || ran == 0 {
		t.Fatalf("inflight=%d after draining, waiters run %d", c.InflightMisses(), ran)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := small(t)
	_, _, m := c.Lookup(0x5000, 0b0001, false, nil)
	c.Fill(m, false)
	if c.DirtyMask(0x5000) != 0 {
		t.Fatal("clean fill left dirty bits")
	}
	out, _, _ := c.Lookup(0x5000, 0b0001, true, nil)
	if out != Hit || c.DirtyMask(0x5000) != 0b0001 {
		t.Fatalf("write hit: %v dirty=%04b", out, c.DirtyMask(0x5000))
	}
	c.CleanSectors(0x5000, 0b0001)
	if c.DirtyMask(0x5000) != 0 {
		t.Fatal("CleanSectors did not clear dirty bit")
	}
}

func TestInsertAndInvalidate(t *testing.T) {
	c := small(t)
	c.Insert(0x6000, 0b0101, true)
	if c.Probe(0x6000) != 0b0101 || c.DirtyMask(0x6000) != 0b0101 {
		t.Fatalf("Insert state: valid=%04b dirty=%04b", c.Probe(0x6000), c.DirtyMask(0x6000))
	}
	d := c.Invalidate(0x6000)
	if d != 0b0101 || c.Probe(0x6000) != 0 {
		t.Fatalf("Invalidate returned %04b, probe=%04b", d, c.Probe(0x6000))
	}
}

func TestMarkDirtyRequiresPresence(t *testing.T) {
	c := small(t)
	if c.MarkDirty(0x7000, 0b0001) {
		t.Fatal("MarkDirty succeeded on absent block")
	}
	c.Insert(0x7000, 0b0001, false)
	if !c.MarkDirty(0x7000, 0b0001) {
		t.Fatal("MarkDirty failed on present sector")
	}
	if c.MarkDirty(0x7000, 0b0010) {
		t.Fatal("MarkDirty succeeded on absent sector")
	}
}

func Test32ByteBlockGeometry(t *testing.T) {
	c := MustNew(Config{Name: "fine", SizeBytes: 2048, BlockSize: 32, Ways: 4, MSHRs: 8})
	if c.SectorsPerBlock() != 1 || c.AllMask() != 0b0001 {
		t.Fatalf("32B geometry: sectors=%d mask=%04b", c.SectorsPerBlock(), c.AllMask())
	}
	// Adjacent 32 B addresses are distinct blocks.
	_, _, m := c.Lookup(0x100, 0b0001, false, nil)
	c.Fill(m, false)
	out, _, _ := c.Lookup(0x120, 0b0001, false, nil)
	if out != Miss {
		t.Fatalf("adjacent 32B block: %v, want miss", out)
	}
}

func TestWalkDirty(t *testing.T) {
	c := small(t)
	c.Insert(0x100, 0b0011, true)
	c.Insert(0x200, 0b0001, false)
	var blocks []geom.Addr
	c.WalkDirty(func(b geom.Addr, d geom.SectorMask) { blocks = append(blocks, b) })
	if len(blocks) != 1 || blocks[0] != 0x100 {
		t.Fatalf("WalkDirty visited %v", blocks)
	}
}

// Property: after any sequence of lookups+fills, every resident sector was
// previously filled, and dirty implies valid.
func TestDirtyImpliesValidProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "q", SizeBytes: 1024, BlockSize: 128, Ways: 2, MSHRs: 2})
		for _, op := range ops {
			addr := geom.Addr(op&0x0fff) * 32
			write := op&0x1000 != 0
			out, _, m := c.Lookup(addr, c.MaskFor(addr), write, nil)
			if out == Miss {
				c.Fill(m, write)
			}
		}
		okAll := true
		for _, ln := range c.lines {
			if ln.dirty&^ln.valid != 0 {
				okAll = false
			}
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Hit: "hit", Miss: "miss", MissMerged: "miss-merged", MissNoMSHR: "miss-no-mshr"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}
