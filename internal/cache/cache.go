// Package cache implements the set-associative, sectored, write-back
// cache model used for both the L2 data cache and the per-partition
// security-metadata caches (counter, MAC, BMT, compact-counter caches).
//
// Sectoring follows the Volta organization the paper assumes: a cache
// block reserves a full BlockSize of tag+storage, but individual
// SectorSize sectors are valid/dirty independently, and only requested
// sectors are fetched from memory (PSSM relies on this for metadata).
// Blocks whose BlockSize equals SectorSize degenerate to a conventional
// non-sectored cache, which is how the fine-granularity 32 B metadata
// designs are modelled.
//
// The cache is a pure state model: it holds tags and per-sector bits (and
// optionally data via the caller), while all timing is imposed by the
// component driving it. Misses allocate MSHRs with request merging;
// allocation is on fill, as in the paper's Table II.
package cache

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// Config describes one cache instance.
type Config struct {
	Name      string
	SizeBytes int
	BlockSize int // bytes per tagged block (128 or 32)
	Ways      int
	MSHRs     int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.BlockSize <= 0 || c.Ways <= 0 || c.MSHRs <= 0:
		return fmt.Errorf("cache %q: all sizes must be positive: %+v", c.Name, c)
	case c.BlockSize%geom.SectorSize != 0:
		return fmt.Errorf("cache %q: block size %d is not a multiple of the %d B sector", c.Name, c.BlockSize, geom.SectorSize)
	case c.SizeBytes%(c.BlockSize*c.Ways) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by block*ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.BlockSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	tag   geom.Addr // block-aligned address
	valid geom.SectorMask
	dirty geom.SectorMask
	lru   uint64
}

// invalidTag stands in the tag array for a way holding no valid sector.
// Tags are block-aligned, so no lookup ever matches it.
const invalidTag = ^geom.Addr(0)

// Eviction describes a victim block leaving the cache. It is returned
// by value; the zero Eviction (Valid == 0) means nothing was evicted.
type Eviction struct {
	Addr  geom.Addr       // block-aligned address of the victim
	Valid geom.SectorMask // sectors the victim held
	Dirty geom.SectorMask
}

// MSHR is a handle on one outstanding miss. MSHR entries are pooled and
// recycled, so the handle pairs an entry with the generation it had when
// handed out: operations through a handle whose miss has already
// completed (a stale fill) are no-ops even after the entry has been
// reused for another miss. The zero MSHR refers to nothing.
type MSHR struct {
	e   *mshr
	gen uint64
}

// mshr is one pooled MSHR entry, merging later requests to its block.
type mshr struct {
	addr    geom.Addr
	pending geom.SectorMask // sectors requested from memory so far
	arrived geom.SectorMask // sectors whose fill data has landed
	gen     uint64          // incarnation; 0 while on the free list
	// head and tail delimit the entry's waiters, a FIFO of nodes in the
	// cache's waiter slab (nilNode when there are none).
	head, tail int32
	id         int32 // position in Cache.entries
	nextFree   *mshr // free-list link while the entry is unused
}

// waiter is one node of a cache's waiter slab: a continuation queued on
// an MSHR, or a free node.
type waiter struct {
	call sim.Call
	next int32
}

// nilNode terminates waiter FIFOs and the slab's free list.
const nilNode = int32(-1)

// Cache is one cache instance. Create with New.
type Cache struct {
	cfg Config
	// lines holds every way, set-major: set s owns
	// lines[s*Ways : (s+1)*Ways].
	lines []line
	// tags mirrors lines' tags for the way scan in find, with invalidTag
	// for ways that hold no valid sector.
	//simlint:ignore snapsym derived from lines; Restore rebuilds it
	tags []geom.Addr
	//simlint:ignore snapsym derived from cfg.Sets at construction
	setMask geom.Addr
	//simlint:ignore snapsym derived from cfg.BlockBytes at construction
	sectors  int // sectors per block
	lruClock uint64

	// The MSHR file. index maps a block number to the id of its live
	// entry; it grows with the peak number of misses in flight, so it
	// never outgrows twice the MSHR count. Entries come from chunks that
	// grow geometrically up to the MSHR count; entries lists them by id,
	// and the unused ones form a free list.
	//simlint:ignore snapsym in-flight misses, none whenever a snapshot is taken
	index dense.Index
	live  int
	//simlint:ignore snapsym MSHR entry pool, empty of live entries whenever a snapshot is taken
	entries []*mshr
	//simlint:ignore snapsym MSHR entry pool, empty of live entries whenever a snapshot is taken
	freeMSHRs *mshr
	//simlint:ignore snapsym incarnation counter of the MSHR pool; only distinctness matters
	mshrGen uint64
	//simlint:ignore snapsym derived from cfg.MSHRs at construction
	mshrLimit int
	// nodes is the waiter slab shared by every MSHR entry, with freeNode
	// heading its free list; done holds the waiters handed out by the
	// latest completion.
	//simlint:ignore snapsym waiter slab, empty of queued continuations whenever a snapshot is taken
	nodes []waiter
	//simlint:ignore snapsym free list of the waiter slab
	freeNode int32
	//simlint:ignore snapsym continuations of the latest completion, run before the next event
	done  []sim.Call
	Stats stats.CacheStats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	tags := make([]geom.Addr, nSets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nSets*cfg.Ways),
		tags:      tags,
		setMask:   geom.Addr(nSets - 1),
		sectors:   cfg.BlockSize / geom.SectorSize,
		mshrLimit: cfg.MSHRs,
		freeNode:  nilNode,
	}, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SectorsPerBlock returns how many sectors one tagged block holds.
func (c *Cache) SectorsPerBlock() int { return c.sectors }

// blockAddr aligns a to this cache's block size.
func (c *Cache) blockAddr(a geom.Addr) geom.Addr {
	return a &^ geom.Addr(c.cfg.BlockSize-1)
}

// sectorIn returns the index of a's sector within its block here.
func (c *Cache) sectorIn(a geom.Addr) int {
	return int(a%geom.Addr(c.cfg.BlockSize)) / geom.SectorSize
}

// MaskFor returns the mask selecting only a's sector, in this cache's
// block geometry.
func (c *Cache) MaskFor(a geom.Addr) geom.SectorMask {
	return 1 << c.sectorIn(a)
}

// AllMask selects every sector of a block in this cache's geometry.
func (c *Cache) AllMask() geom.SectorMask { return 1<<c.sectors - 1 }

// setBase returns the index in lines of block's set's first way.
func (c *Cache) setBase(block geom.Addr) int {
	return int((block/geom.Addr(c.cfg.BlockSize))&c.setMask) * c.cfg.Ways
}

// find returns the index in lines of block's valid way, or -1.
//
//simlint:hotpath
func (c *Cache) find(block geom.Addr) int {
	base := c.setBase(block)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == block {
			return base + i
		}
	}
	return -1
}

// line returns block's valid line, or nil.
func (c *Cache) line(block geom.Addr) *line {
	if i := c.find(block); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// setTag records way i's line in the tag array.
func (c *Cache) setTag(i int) {
	c.tags[i] = invalidTag
	if c.lines[i].valid != 0 {
		c.tags[i] = c.lines[i].tag
	}
}

// blockNum numbers block for the MSHR index.
func (c *Cache) blockNum(block geom.Addr) uint64 {
	return uint64(block / geom.Addr(c.cfg.BlockSize))
}

// inflightFor returns the live MSHR entry for block, or nil.
//
//simlint:hotpath
func (c *Cache) inflightFor(block geom.Addr) *mshr {
	if i, ok := c.index.Get(c.blockNum(block)); ok {
		return c.entries[i]
	}
	return nil
}

// Outcome classifies a lookup.
type Outcome int

const (
	// Hit: every requested sector is present.
	Hit Outcome = iota
	// Miss: at least one requested sector absent; a new memory request is
	// needed for the missing sectors.
	Miss
	// MissMerged: absent sectors are already covered by an in-flight MSHR;
	// no new memory request is needed.
	MissMerged
	// MissNoMSHR: miss, but no MSHR could be allocated; the requester must
	// retry later (models MSHR-full stalls).
	MissNoMSHR
)

// String names the outcome for diagnostics.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case MissNoMSHR:
		return "miss-no-mshr"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Lookup checks for addr's sectors given by mask (in this cache's
// geometry) and updates LRU and statistics. On Miss it returns the mask of
// sectors that must be fetched and the MSHR tracking them (already
// registered). On MissMerged the returned MSHR is the existing one.
// onDone (nullable) is registered as a waiter on the MSHR in both cases;
// it is copied, so the pointer need not outlive the call.
//
//simlint:hotpath
func (c *Cache) Lookup(addr geom.Addr, mask geom.SectorMask, write bool, onDone *sim.Call) (Outcome, geom.SectorMask, MSHR) {
	block := c.blockAddr(addr)
	ln := c.line(block)
	if ln != nil && ln.valid&mask == mask {
		c.lruClock++
		ln.lru = c.lruClock
		if write {
			ln.dirty |= mask
		}
		c.Stats.Hits++
		return Hit, 0, MSHR{}
	}
	var present geom.SectorMask
	if ln != nil {
		present = ln.valid
		c.lruClock++
		ln.lru = c.lruClock
	}
	need := mask &^ present

	if m := c.inflightFor(block); m != nil {
		if onDone != nil {
			c.addWaiter(m, *onDone)
		}
		still := need &^ m.pending
		if still == 0 {
			c.Stats.MSHRMerges++
			return MissMerged, 0, MSHR{m, m.gen}
		}
		// Partially covered: extend the MSHR with the extra sectors; the
		// caller issues a memory request for just those.
		m.pending |= still
		c.Stats.Misses++
		return Miss, still, MSHR{m, m.gen}
	}
	if c.live >= c.mshrLimit {
		return MissNoMSHR, need, MSHR{}
	}
	m := c.allocMSHR(block, need)
	if onDone != nil {
		c.addWaiter(m, *onDone)
	}
	c.Stats.Misses++
	return Miss, need, MSHR{m, m.gen}
}

// allocMSHR takes an entry from the pool and registers it for block.
//
//simlint:hotpath
func (c *Cache) allocMSHR(block geom.Addr, need geom.SectorMask) *mshr {
	if c.freeMSHRs == nil {
		c.growMSHRs()
	}
	m := c.freeMSHRs
	c.freeMSHRs = m.nextFree
	c.mshrGen++
	*m = mshr{addr: block, pending: need, gen: c.mshrGen, head: nilNode, tail: nilNode, id: m.id}
	c.index.Put(c.blockNum(block), m.id)
	c.live++
	return m
}

// growMSHRs adds a chunk of free MSHR entries, as many as exist already
// (at least four) but never more than the MSHR count; out of line, so
// the rare allocation stays out of the hot bodies it would be inlined
// into.
//
//go:noinline
func (c *Cache) growMSHRs() {
	made := len(c.entries)
	chunk := make([]mshr, min(max(made, 4), c.mshrLimit-made))
	for i := range chunk {
		m := &chunk[i]
		m.id, m.nextFree = int32(made+i), c.freeMSHRs
		c.entries = append(c.entries, m)
		c.freeMSHRs = m
	}
}

// addWaiter queues call at the tail of m's waiters.
//
//simlint:hotpath
func (c *Cache) addWaiter(m *mshr, call sim.Call) {
	if c.freeNode == nilNode {
		c.growNodes()
	}
	i := c.freeNode
	c.freeNode = c.nodes[i].next
	c.nodes[i] = waiter{call: call, next: nilNode}
	if m.tail == nilNode {
		m.head = i
	} else {
		c.nodes[m.tail].next = i
	}
	m.tail = i
}

// growNodes adds one free node to the waiter slab (append doubles the
// backing array, so growth allocates rarely); out of line for the same
// reason as growMSHRs.
//
//go:noinline
func (c *Cache) growNodes() {
	c.nodes = append(c.nodes, waiter{next: c.freeNode})
	c.freeNode = int32(len(c.nodes) - 1)
}

// Fill installs all of the MSHR's pending sectors at once
// (allocate-on-fill), returning any eviction needed to make room plus the
// waiters to resume. markDirty makes the filled sectors dirty immediately
// (fill-from-write). Use FillSectors when fill data arrives piecemeal.
func (c *Cache) Fill(m MSHR, markDirty bool) (Eviction, []sim.Call) {
	if m.e == nil || m.e.gen != m.gen {
		return Eviction{}, nil
	}
	ev, _, w := c.FillSectors(m, m.e.pending, markDirty)
	return ev, w
}

// FillSectors records the arrival of some of an MSHR's sectors. The
// sectors are installed immediately; the MSHR completes — returns to the
// pool, handing back its waiters in registration order — only once every
// pending sector has arrived, so a fill for an MSHR that was extended
// after this memory request was issued cannot prematurely retire the
// extension. Fills through a stale handle (the miss already completed)
// are no-ops.
//
// The returned waiter slice is the cache's own and stays intact until
// the cache completes another MSHR, which needs another fill event:
// callers run it before returning to the event loop. Waiters registered
// meanwhile, even on the same recycled entry, never land in it.
//
//simlint:hotpath
func (c *Cache) FillSectors(m MSHR, mask geom.SectorMask, markDirty bool) (ev Eviction, done bool, waiters []sim.Call) {
	e := m.e
	if e == nil || e.gen != m.gen {
		return Eviction{}, false, nil
	}
	e.arrived |= mask & e.pending
	ev = c.install(e.addr, mask&e.pending, markDirty)
	if e.arrived != e.pending {
		return ev, false, nil
	}
	return ev, true, c.retire(e)
}

// retire returns a completed entry to the pool and its waiter nodes to
// the slab, handing back the waiters' continuations in c.done.
//
//simlint:hotpath
func (c *Cache) retire(e *mshr) []sim.Call {
	c.index.Delete(c.blockNum(e.addr))
	c.live--
	e.gen = 0
	clear(c.done) // release the previous completion's continuations
	waiters := c.done[:0]
	for i := e.head; i != nilNode; {
		n := &c.nodes[i]
		waiters = append(waiters, n.call)
		next := n.next
		*n = waiter{next: c.freeNode}
		c.freeNode = i
		i = next
	}
	c.done = waiters
	e.nextFree = c.freeMSHRs
	c.freeMSHRs = e
	return waiters
}

// install merges sectors into an existing line or allocates a victim.
//
//simlint:hotpath
func (c *Cache) install(block geom.Addr, mask geom.SectorMask, dirty bool) Eviction {
	c.lruClock++
	if ln := c.line(block); ln != nil {
		ln.valid |= mask
		if dirty {
			ln.dirty |= mask
		}
		ln.lru = c.lruClock
		return Eviction{}
	}
	base := c.setBase(block)
	set := c.lines[base : base+c.cfg.Ways]
	v := 0
	for i := range set {
		if set[i].valid == 0 {
			v = i
			break
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	victim := &set[v]
	var ev Eviction
	if victim.valid != 0 {
		c.Stats.Evictions++
		if victim.dirty != 0 {
			c.Stats.DirtyEvictions++
		}
		ev = Eviction{Addr: victim.tag, Valid: victim.valid, Dirty: victim.dirty}
	}
	victim.tag = block
	victim.valid = mask
	victim.dirty = 0
	if dirty {
		victim.dirty = mask
	}
	victim.lru = c.lruClock
	c.setTag(base + v)
	return ev
}

// Insert places sectors directly (no MSHR), used for write-allocate paths
// in the metadata engines where the "fill" data is produced on-chip.
//
//simlint:hotpath
func (c *Cache) Insert(addr geom.Addr, mask geom.SectorMask, dirty bool) Eviction {
	return c.install(c.blockAddr(addr), mask, dirty)
}

// Probe reports which of addr's sectors are present, without side effects.
func (c *Cache) Probe(addr geom.Addr) geom.SectorMask {
	if ln := c.line(c.blockAddr(addr)); ln != nil {
		return ln.valid
	}
	return 0
}

// DirtyMask reports which of addr's sectors are dirty.
func (c *Cache) DirtyMask(addr geom.Addr) geom.SectorMask {
	if ln := c.line(c.blockAddr(addr)); ln != nil {
		return ln.dirty
	}
	return 0
}

// MarkDirty marks present sectors of addr dirty, reporting success.
func (c *Cache) MarkDirty(addr geom.Addr, mask geom.SectorMask) bool {
	ln := c.line(c.blockAddr(addr))
	if ln == nil || ln.valid&mask != mask {
		return false
	}
	ln.dirty |= mask
	return true
}

// CleanSectors clears dirty bits (after a writeback completes).
func (c *Cache) CleanSectors(addr geom.Addr, mask geom.SectorMask) {
	if ln := c.line(c.blockAddr(addr)); ln != nil {
		ln.dirty &^= mask
	}
}

// Invalidate removes addr's block entirely, returning its dirty sectors.
func (c *Cache) Invalidate(addr geom.Addr) geom.SectorMask {
	i := c.find(c.blockAddr(addr))
	if i < 0 {
		return 0
	}
	ln := &c.lines[i]
	d := ln.dirty
	ln.valid, ln.dirty, ln.tag = 0, 0, 0
	c.setTag(i)
	return d
}

// InflightMisses returns the number of allocated MSHRs.
func (c *Cache) InflightMisses() int { return c.live }

// FreeMSHRs returns the number of unallocated MSHR entries.
func (c *Cache) FreeMSHRs() int { return c.mshrLimit - c.live }

// WalkDirty visits every dirty (block, mask) pair; used to flush at
// simulation end so writeback traffic is fully accounted.
func (c *Cache) WalkDirty(fn func(block geom.Addr, dirty geom.SectorMask)) {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid != 0 && ln.dirty != 0 {
			fn(ln.tag, ln.dirty)
		}
	}
}
