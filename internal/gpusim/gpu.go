package gpusim

import (
	"encoding/binary"
	"fmt"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// GPU is one simulated device executing one workload.
//
// The simulation is sharded: all SMs and warps live on one shard, and
// each memory partition is its own shard with a private event engine.
// Requests and responses cross the SM↔partition interconnect as
// cycle-stamped mailbox messages, and the shards advance in lockstep
// windows no wider than the interconnect latency (conservative PDES).
// With Config.ParallelPartitions the shards execute on parallel
// goroutines; either way the result is bit-identical, because message
// delivery order is canonical and no mutable state crosses shard
// boundaries (partitions call only the workload's pure MemValue and
// StoreValue).
type GPU struct {
	cfg     Config
	cluster *sim.Cluster
	smShard *sim.Shard
	eng     *sim.Engine // SM-side engine (smShard's); warps schedule here
	xbar    sim.Cycle   // effective interconnect latency (≥ 1, the lookahead)
	il      *geom.Interleaver
	wl      Workload
	parts   []*partition
	sms     []smCtx
	warps   []warpCtx

	// coalesceBuf is the SM shard's reusable sector-dedup scratch; see
	// coalesce for the aliasing contract.
	coalesceBuf []geom.Addr

	// loadRecs pools the SM shard's in-flight load instructions; empty
	// whenever a snapshot is taken. h holds the SM-side continuation
	// targets, bound once in New.
	loadRecs sim.Pool[loadRec]
	h        gpuHandlers

	issued      uint64
	loads       uint64
	stores      uint64
	activeWarps int
	budgetDone  bool

	// Checkpoint state (see checkpoint.go). While draining, fetch parks
	// warps instead of issuing; parked records the park order, which is
	// part of the deterministic-replay contract. restoredParked seeds the
	// first window of a resumed run; nextCkpt is the next checkpoint
	// trigger cycle when cfg.CheckpointEvery > 0.
	draining       bool
	parked         []*warpCtx
	restoredParked []int
	nextCkpt       uint64

	// Fault-injection schedule (see tamper.go). tamperApplied is the
	// count of ops already applied; it is part of the snapshot so a
	// resumed run does not re-apply ops its snapshot already contains.
	tamperOps     []TamperOp
	tamperApplied int
	tamperLog     []TamperRecord

	// issueTap, when set, observes every instruction the moment it is
	// issued (after the workload hands it out, before any scheduling) —
	// the hook trace capture records the real issued stream through. Not
	// simulation state: a capturing caller re-registers it after resume.
	issueTap func(warp int, inst Inst)
}

// SetIssueTap registers fn to observe every issued instruction in issue
// order, or removes the tap when fn is nil. The tap sees exactly what
// execute sees — including streams shortened by instruction budgets or
// altered scheduling under tamper plans — so a capture of a run is the
// run. fn must not retain inst.Addrs past the call.
func (g *GPU) SetIssueTap(fn func(warp int, inst Inst)) { g.issueTap = fn }

// partition is one memory-side shard. All fields are owned by the
// partition's goroutine during a window; the SM side may only reach them
// through mailbox messages, whose continuations carry their data in the
// argument (sectorArg).
type partition struct {
	//simlint:ignore snapsym construction wiring: the section name carries the id, New rebuilds it
	id int
	//simlint:ignore snapsym construction wiring, rebuilt by New
	gpu *GPU
	//simlint:ignore snapsym construction wiring, rebuilt by New
	shard  *sim.Shard
	eng    *sim.Engine // partition-local engine (shard's)
	l2     *cache.Cache
	l2data dense.Sectors // by local sector index → plaintext
	sec    *secmem.Engine
	ch     *dram.Channel
	st     *stats.Stats
	l2Free sim.Cycle // L2 bank single-issue ladder
	// mshrWait queues requests blocked on a full L2 MSHR file; they are
	// released when a fill frees an entry (no polling).
	//simlint:ignore snapsym continuations, empty by the quiescence invariant when snapshots are taken
	mshrWait sim.CallQueue
	// misses pools the partition's L2 misses awaiting their secure read;
	// empty whenever a snapshot is taken.
	//simlint:ignore snapsym request records, empty by the quiescence invariant when snapshots are taken
	misses sim.Pool[l2Miss]
	//simlint:ignore snapsym continuation targets bound by New
	h partHandlers
	//simlint:ignore snapsym per-call scratch behind the InitData hook
	initBuf [geom.SectorSize]byte
}

// gpuHandlers are the SM shard's continuation targets.
type gpuHandlers struct {
	fetch, execute, loadDone func(uint64)
}

// partHandlers are a partition shard's continuation targets.
type partHandlers struct {
	load, l2Load, respond, filled, store, storeL2 func(uint64)
}

// loadRec is one in-flight load instruction on the SM shard.
type loadRec struct {
	warp      int
	remaining int // sectors still outstanding
}

// l2Miss is one L2 miss waiting on its secure read.
type l2Miss struct {
	local geom.Addr
	m     cache.MSHR
	need  geom.SectorMask
}

// sectorArg packs what a sector message's continuations carry across
// the interconnect into one argument, since neither shard may read the
// other's records: the partition-local sector index, and in the low
// lowBits either the SM-side load record (loads) or the storing warp
// (stores). Live loads are bounded by warps × MaxPendingLoads. Sectors
// take the rest, 32 TiB per partition.
func sectorArg(local geom.Addr, low uint64) uint64 {
	si := uint64(local) / geom.SectorSize
	if si >= 1<<(64-lowBits) || low >= 1<<lowBits {
		panic(fmt.Sprintf("gpusim: sector %#x / record or warp %d exceeds the continuation argument", uint64(local), low))
	}
	return si<<lowBits | low
}

// argSector and argLow unpack a sectorArg.
func argSector(arg uint64) geom.Addr { return geom.Addr(arg>>lowBits) * geom.SectorSize }

func argLow(arg uint64) uint64 { return arg & (1<<lowBits - 1) }

const lowBits = 24

// releaseMSHRWaiters wakes as many blocked requests as there are free
// MSHR entries (waking more would only re-park them).
//
//simlint:hotpath
func (p *partition) releaseMSHRWaiters() {
	n := p.l2.FreeMSHRs()
	if m := p.mshrWait.Len(); n > m {
		n = m
	}
	for ; n > 0; n-- {
		p.eng.ScheduleCall(1, p.mshrWait.Pop())
	}
}

type smCtx struct {
	// slotFree is the next free issue slot, in units of 1/IssueWidth
	// cycle, so multi-issue SMs are modelled without fractional cycles.
	slotFree uint64
}

type warpCtx struct {
	id, sm      int
	active      bool
	outstanding int  // loads in flight
	blocked     bool // stalled on MaxPendingLoads
	inst        Inst // fetched, waiting for its issue slot
}

// New builds a GPU running workload wl under cfg.
func New(cfg Config, wl Workload) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	il, err := geom.NewInterleaver(cfg.Partitions)
	if err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, il: il, wl: wl}
	g.h = gpuHandlers{fetch: g.onFetch, execute: g.execute, loadDone: g.loadDone}
	// The interconnect latency is the PDES lookahead; a zero-latency
	// crossbar is modelled as one cycle so the window stays positive.
	g.xbar = cfg.XbarLatency
	if g.xbar < 1 {
		g.xbar = 1
	}
	// Shard 0 is the SM side; shards 1..Partitions are the partitions.
	g.cluster = sim.NewCluster(1+cfg.Partitions, g.xbar, cfg.ParallelPartitions)
	g.smShard = g.cluster.Shard(0)
	g.eng = g.smShard.Engine()

	for p := 0; p < cfg.Partitions; p++ {
		shard := g.cluster.Shard(1 + p)
		part := &partition{
			id:    p,
			gpu:   g,
			shard: shard,
			eng:   shard.Engine(),
			st:    &stats.Stats{},
		}
		part.h = partHandlers{load: part.load, l2Load: part.l2Load, respond: part.respond, filled: part.filled, store: part.store, storeL2: part.storeL2}
		part.l2 = cache.MustNew(cache.Config{
			Name:      fmt.Sprintf("l2.%d", p),
			SizeBytes: cfg.L2PerPartition,
			BlockSize: geom.BlockSize,
			Ways:      cfg.L2Ways,
			MSHRs:     cfg.L2MSHRs,
		})
		part.ch = dram.MustNew(cfg.DRAM, part.eng, &part.st.Traffic)
		sec := cfg.Sec
		part.sec, err = secmem.New(sec, part.eng, part.ch, part.st)
		if err != nil {
			return nil, err
		}
		p := p
		part.sec.InitData = func(local geom.Addr) []byte {
			// The engine copies the result at once, so the partition's
			// scratch sector is reused across calls.
			buf := part.initBuf[:]
			global := il.GlobalAddr(p, local)
			for k := 0; k < geom.SectorSize/4; k++ {
				v := wl.MemValue(global + geom.Addr(k*4))
				buf[k*4] = byte(v)
				buf[k*4+1] = byte(v >> 8)
				buf[k*4+2] = byte(v >> 16)
				buf[k*4+3] = byte(v >> 24)
			}
			return buf
		}
		if src, ok := wl.(secmem.StreamCursorSource); ok {
			part.sec.StreamHint = func(local geom.Addr) (uint64, bool) {
				return src.StreamCursor(il.GlobalAddr(p, local))
			}
		}
		g.parts = append(g.parts, part)
	}

	g.sms = make([]smCtx, cfg.SMs)
	n := wl.Warps()
	g.warps = make([]warpCtx, n)
	for w := range g.warps {
		g.warps[w] = warpCtx{id: w, sm: w % cfg.SMs, active: true}
	}
	g.activeWarps = n
	return g, nil
}

// fetch advances warp w to its next instruction.
func (g *GPU) fetch(w *warpCtx) {
	if !w.active {
		return
	}
	if g.draining {
		// Epoch drain: park instead of issuing. The workload cursor is
		// untouched, so the parked warp's next instruction is exactly the
		// one it will fetch after the checkpoint (or after resume).
		g.parked = append(g.parked, w)
		return
	}
	if g.budgetDone {
		g.retire(w)
		return
	}
	inst, ok := g.wl.Next(w.id)
	if !ok {
		g.retire(w)
		return
	}
	g.issued++
	if g.issueTap != nil {
		g.issueTap(w.id, inst)
	}
	if g.cfg.MaxInstructions > 0 && g.issued >= g.cfg.MaxInstructions {
		g.budgetDone = true
	}

	// Reserve an issue slot on the warp's SM.
	sm := &g.sms[w.sm]
	now := g.eng.Now()
	slotNow := uint64(now) * uint64(g.cfg.IssueWidth)
	if sm.slotFree < slotNow {
		sm.slotFree = slotNow
	}
	t := sim.Cycle(sm.slotFree / uint64(g.cfg.IssueWidth))
	sm.slotFree++

	w.inst = inst
	g.eng.ScheduleCall(t-now, sim.Call{H: g.h.execute, Arg: uint64(w.id)})
}

// onFetch is fetch as a continuation on warp index id.
//
//simlint:hotpath
func (g *GPU) onFetch(id uint64) { g.fetch(&g.warps[id]) }

// fetchNext schedules warp w's next fetch after delay cycles.
//
//simlint:hotpath
func (g *GPU) fetchNext(w *warpCtx, delay sim.Cycle) {
	g.eng.ScheduleCall(delay, sim.Call{H: g.h.fetch, Arg: uint64(w.id)})
}

// execute runs warp id's fetched instruction at its issue slot.
//
//simlint:hotpath
func (g *GPU) execute(id uint64) {
	w := &g.warps[id]
	inst := w.inst
	w.inst = Inst{}
	switch inst.Kind {
	case Compute:
		c := inst.Cycles
		if c < 1 {
			c = 1
		}
		g.fetchNext(w, sim.Cycle(c))
	case Load:
		g.loads++
		sectors := g.coalesce(inst.Addrs)
		if len(sectors) == 0 {
			g.fetchNext(w, 1)
			return
		}
		w.outstanding++
		rec := g.loadRecs.Get()
		*g.loadRecs.At(rec) = loadRec{warp: w.id, remaining: len(sectors)}
		for _, s := range sectors {
			p := g.parts[g.il.Partition(s)]
			g.smShard.Send(p.shard, g.xbar, sim.Call{H: p.h.load, Arg: sectorArg(g.il.LocalAddr(s), rec)})
		}
		// Warps tolerate several loads in flight (intra-warp MLP); they
		// stall only at the MLP limit.
		if w.outstanding < g.cfg.MaxPendingLoads {
			g.fetchNext(w, 1)
		} else {
			w.blocked = true
		}
	case Store:
		g.stores++
		for _, s := range g.coalesce(inst.Addrs) {
			p := g.parts[g.il.Partition(s)]
			g.smShard.Send(p.shard, g.xbar, sim.Call{H: p.h.store, Arg: sectorArg(g.il.LocalAddr(s), uint64(w.id))})
		}
		// Stores retire immediately (write-back hierarchy absorbs them).
		g.fetchNext(w, 1)
	}
}

// loadDone retires one responding sector of load record rec; the last
// one completes the load and may unblock its warp.
//
//simlint:hotpath
func (g *GPU) loadDone(rec uint64) {
	lr := g.loadRecs.At(rec)
	lr.remaining--
	if lr.remaining != 0 {
		return
	}
	w := &g.warps[lr.warp]
	g.loadRecs.Put(rec)
	w.outstanding--
	if w.blocked {
		w.blocked = false
		g.fetch(w)
	}
}

func (g *GPU) retire(w *warpCtx) {
	if w.active {
		w.active = false
		g.activeWarps--
	}
}

// coalesce reduces per-thread addresses to their unique sectors,
// preserving first-touch order. The result aliases a scratch buffer
// owned by the SM shard and is only valid until the next coalesce call;
// callers consume it synchronously (interconnect messages carry sector
// values, never the slice). Warps are a few dozen threads wide,
// so a linear dedup scan beats a per-instruction map.
func (g *GPU) coalesce(addrs []geom.Addr) []geom.Addr {
	out := g.coalesceBuf[:0]
	for _, a := range addrs {
		s := geom.SectorAddr(a)
		dup := false
		for _, u := range out {
			if u == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	g.coalesceBuf = out
	return out
}

// load queues a load sector for the partition's L2 port (arg from
// sectorArg, carrying the SM-side load record).
//
//simlint:hotpath
func (p *partition) load(arg uint64) { p.atPort(p.h.l2Load, arg) }

// store queues a store sector for the partition's L2 port (arg from
// sectorArg, carrying the storing warp).
//
//simlint:hotpath
func (p *partition) store(arg uint64) { p.atPort(p.h.storeL2, arg) }

// atPort runs h(arg) at the L2 bank's next free single-issue slot.
//
//simlint:hotpath
func (p *partition) atPort(h func(uint64), arg uint64) {
	now := p.eng.Now()
	t := now
	if p.l2Free > t {
		t = p.l2Free
	}
	p.l2Free = t + 1
	p.eng.ScheduleCall(t-now, sim.Call{H: h, Arg: arg})
}

// l2Load looks a load sector up in the L2 once it has its port slot. A
// miss starts the secure read; hits and merged misses only wait.
//
//simlint:hotpath
func (p *partition) l2Load(arg uint64) {
	local := argSector(arg)
	respond := sim.Call{H: p.h.respond, Arg: argLow(arg)}
	out, need, m := p.l2.Lookup(local, geom.MaskFor(local), false, &respond)
	switch out {
	case cache.Hit:
		p.eng.ScheduleCall(p.gpu.cfg.L2HitLatency, respond)
	case cache.Miss:
		id := p.misses.Get()
		*p.misses.At(id) = l2Miss{local: local, m: m, need: need}
		p.sec.ReadCall(local, sim.Call{H: p.h.filled, Arg: id})
	case cache.MissNoMSHR:
		p.mshrWait.Push(sim.Call{H: p.h.l2Load, Arg: arg})
	}
	// MissMerged: Lookup registered respond on the in-flight MSHR.
}

// respond sends load record rec's sector response back across the
// interconnect.
//
//simlint:hotpath
func (p *partition) respond(rec uint64) {
	g := p.gpu
	p.shard.Send(g.smShard, g.xbar, sim.Call{H: g.h.loadDone, Arg: rec})
}

// filled installs the secure read of L2 miss id and resumes the MSHR's
// waiters once the block's pending sectors have all arrived.
//
//simlint:hotpath
func (p *partition) filled(id uint64) {
	ms := *p.misses.At(id)
	p.misses.Put(id)
	// A store may have raced ahead of this fill; its dirty data is newer
	// than what memory returned.
	if p.l2.DirtyMask(ms.local)&geom.MaskFor(ms.local) == 0 {
		copy(p.l2data.Put(uint64(ms.local)/geom.SectorSize), p.sec.Completed().Data)
	}
	ev, done, waiters := p.l2.FillSectors(ms.m, ms.need, false)
	p.handleL2Eviction(ev)
	if done {
		for _, w := range waiters {
			w.Run()
		}
		p.releaseMSHRWaiters()
	}
}

// storeL2 services a store sector once it has its port slot:
// write-allocate without fetch (coalesced GPU stores cover whole
// sectors). The stored bytes are computed here from Workload.StoreValue,
// which is pure, so the message carries only (sector, warp).
//
//simlint:hotpath
func (p *partition) storeL2(arg uint64) {
	local := argSector(arg)
	mask := geom.MaskFor(local)
	// Stores must not allocate MSHRs (nothing will ever fill them):
	// hit → mark dirty in place; miss → write-allocate without fetch.
	if p.l2.Probe(local)&mask == mask {
		p.l2.MarkDirty(local, mask)
		p.l2.Stats.Hits++
	} else {
		p.l2.Stats.Misses++
		p.handleL2Eviction(p.l2.Insert(local, mask, true))
	}
	data := p.l2data.Put(uint64(local) / geom.SectorSize)
	global := p.gpu.il.GlobalAddr(p.id, local)
	warp := int(argLow(arg))
	for k := 0; k < geom.SectorSize/4; k++ {
		binary.LittleEndian.PutUint32(data[k*4:], p.gpu.wl.StoreValue(warp, global+geom.Addr(k*4)))
	}
}

// handleL2Eviction writes back the dirty sectors of an evicted L2 block
// (if ev is one) and drops its data.
//
//simlint:hotpath
func (p *partition) handleL2Eviction(ev cache.Eviction) {
	if ev.Valid == 0 {
		return
	}
	for s := 0; s < geom.SectorsPerBlock; s++ {
		sa := ev.Addr + geom.Addr(s*geom.SectorSize)
		si := uint64(sa) / geom.SectorSize
		data, resident := p.l2data.Lookup(si)
		if ev.Dirty.Has(s) {
			if !resident {
				panic(fmt.Sprintf("gpusim: dirty L2 sector %#x has no data", sa))
			}
			// Writeback copies the sector before returning, so handing
			// it a slice aliasing the dense store is safe to delete.
			p.sec.WritebackCall(sa, data, sim.Call{})
		}
		p.l2data.Delete(si)
	}
}

// flushL2 writes back all remaining dirty L2 sectors at end of run.
func (p *partition) flushL2() {
	p.l2.WalkDirty(func(block geom.Addr, dirty geom.SectorMask) {
		dirty.Sectors(func(s int) {
			sa := block + geom.Addr(s*geom.SectorSize)
			if data, ok := p.l2data.Lookup(uint64(sa) / geom.SectorSize); ok {
				p.sec.Writeback(sa, data, nil)
			}
		})
		p.l2.CleanSectors(block, dirty)
	})
}

// RunDebug is Run with a progress callback roughly every 2^20 events
// (diagnostic aid; not part of the stable API).
func (g *GPU) RunDebug(progress func(events, now, issued uint64, active int)) *stats.Stats {
	defer g.cluster.Close()
	for i := range g.warps {
		g.fetchNext(&g.warps[i], 0)
	}
	var n, lastReport uint64
	for {
		ran := g.cluster.RunWindow()
		if ran == 0 {
			break
		}
		n += ran
		if n-lastReport >= 1<<20 && progress != nil {
			lastReport = n
			progress(n, uint64(g.cluster.LastEventAt()), g.issued, g.activeWarps)
		}
	}
	return &stats.Stats{Cycles: uint64(g.cluster.LastEventAt()), Instructions: g.issued}
}

// DebugHungWarps reports warps still active with outstanding sectors
// after the event queue drained (diagnostic aid).
func (g *GPU) DebugHungWarps() (active, pendingSum int, mshrWait int, l2Inflight int, secPending int) {
	for _, w := range g.warps {
		if w.active {
			active++
			pendingSum += w.outstanding
		}
	}
	for _, p := range g.parts {
		mshrWait += p.mshrWait.Len()
		l2Inflight += p.l2.InflightMisses()
		secPending += p.sec.Pending()
	}
	return
}
