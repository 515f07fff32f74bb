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
	waiters []sim.Call
	// spare is the waiter list handed out by the entry's previous
	// completion. The two lists swap at every completion, so waiters
	// registered on a reincarnation of the entry while its caller still
	// runs the old list never land in the slice being iterated, and
	// neither list is ever reallocated once grown.
	spare []sim.Call
}

// Cache is one cache instance. Create with New.
type Cache struct {
	cfg  Config
	sets [][]line
	//simlint:ignore snapsym derived from cfg.Sets at construction
	setMask geom.Addr
	//simlint:ignore snapsym derived from cfg.BlockBytes at construction
	sectors  int // sectors per block
	lruClock uint64
	// inflight lists each set's live MSHR entries (misses in flight to
	// one set are few, so a scan beats hashing); live counts them all.
	//simlint:ignore snapsym in-flight misses, none whenever a snapshot is taken
	inflight [][]*mshr
	live     int
	//simlint:ignore snapsym MSHR entry pool, empty of live entries whenever a snapshot is taken
	freeMSHRs []*mshr
	//simlint:ignore snapsym incarnation counter of the MSHR pool; only distinctness matters
	mshrGen uint64
	//simlint:ignore snapsym derived from cfg.MSHRs at construction
	mshrLimit int
	Stats     stats.CacheStats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   geom.Addr(nSets - 1),
		sectors:   cfg.BlockSize / geom.SectorSize,
		inflight:  make([][]*mshr, nSets),
		mshrLimit: cfg.MSHRs,
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

func (c *Cache) setIndex(block geom.Addr) geom.Addr {
	return (block / geom.Addr(c.cfg.BlockSize)) & c.setMask
}

func (c *Cache) setOf(block geom.Addr) []line {
	return c.sets[c.setIndex(block)]
}

// inflightFor returns the live MSHR entry for block, or nil.
func (c *Cache) inflightFor(block geom.Addr) *mshr {
	for _, m := range c.inflight[c.setIndex(block)] {
		if m.addr == block {
			return m
		}
	}
	return nil
}

func (c *Cache) find(block geom.Addr) *line {
	set := c.setOf(block)
	for i := range set {
		if set[i].valid != 0 && set[i].tag == block {
			return &set[i]
		}
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
	ln := c.find(block)
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
			m.waiters = append(m.waiters, *onDone)
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
		m.waiters = append(m.waiters, *onDone)
	}
	c.Stats.Misses++
	return Miss, need, MSHR{m, m.gen}
}

// allocMSHR takes an entry from the pool (growing it only while fewer
// entries exist than have ever been in flight at once) and registers it
// for block.
//
//simlint:hotpath
func (c *Cache) allocMSHR(block geom.Addr, need geom.SectorMask) *mshr {
	var m *mshr
	if n := len(c.freeMSHRs); n > 0 {
		m = c.freeMSHRs[n-1]
		c.freeMSHRs = c.freeMSHRs[:n-1]
	} else {
		m = newMSHR()
	}
	c.mshrGen++
	m.addr, m.pending, m.arrived, m.gen = block, need, 0, c.mshrGen
	si := c.setIndex(block)
	c.inflight[si] = append(c.inflight[si], m)
	c.live++
	return m
}

// newMSHR grows the pool by one entry; out of line, so the one-time
// allocation stays out of the hot bodies it would be inlined into.
//
//go:noinline
func newMSHR() *mshr { return &mshr{} }

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
// pool, handing back its waiters — only once every pending sector has
// arrived, so a fill for an MSHR that was extended after this memory
// request was issued cannot prematurely retire the extension. Fills
// through a stale handle (the miss already completed) are no-ops.
//
// The returned waiter slice stays intact until the entry completes again,
// which needs another fill event: callers run it before returning to the
// event loop.
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
	c.retire(e)
	e.gen = 0
	waiters = e.waiters
	clear(e.spare) // release the previous completion's continuations
	e.waiters, e.spare = e.spare[:0], waiters
	c.freeMSHRs = append(c.freeMSHRs, e)
	return ev, true, waiters
}

// retire removes a completed entry from its set's in-flight list.
//
//simlint:hotpath
func (c *Cache) retire(e *mshr) {
	si := c.setIndex(e.addr)
	list := c.inflight[si]
	for i, m := range list {
		if m == e {
			last := len(list) - 1
			list[i], list[last] = list[last], nil
			c.inflight[si] = list[:last]
			break
		}
	}
	c.live--
}

// install merges sectors into an existing line or allocates a victim.
//
//simlint:hotpath
func (c *Cache) install(block geom.Addr, mask geom.SectorMask, dirty bool) Eviction {
	c.lruClock++
	if ln := c.find(block); ln != nil {
		ln.valid |= mask
		if dirty {
			ln.dirty |= mask
		}
		ln.lru = c.lruClock
		return Eviction{}
	}
	set := c.setOf(block)
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
	if ln := c.find(c.blockAddr(addr)); ln != nil {
		return ln.valid
	}
	return 0
}

// DirtyMask reports which of addr's sectors are dirty.
func (c *Cache) DirtyMask(addr geom.Addr) geom.SectorMask {
	if ln := c.find(c.blockAddr(addr)); ln != nil {
		return ln.dirty
	}
	return 0
}

// MarkDirty marks present sectors of addr dirty, reporting success.
func (c *Cache) MarkDirty(addr geom.Addr, mask geom.SectorMask) bool {
	ln := c.find(c.blockAddr(addr))
	if ln == nil || ln.valid&mask != mask {
		return false
	}
	ln.dirty |= mask
	return true
}

// CleanSectors clears dirty bits (after a writeback completes).
func (c *Cache) CleanSectors(addr geom.Addr, mask geom.SectorMask) {
	if ln := c.find(c.blockAddr(addr)); ln != nil {
		ln.dirty &^= mask
	}
}

// Invalidate removes addr's block entirely, returning its dirty sectors.
func (c *Cache) Invalidate(addr geom.Addr) geom.SectorMask {
	block := c.blockAddr(addr)
	if ln := c.find(block); ln != nil {
		d := ln.dirty
		ln.valid, ln.dirty, ln.tag = 0, 0, 0
		return d
	}
	return 0
}

// InflightMisses returns the number of allocated MSHRs.
func (c *Cache) InflightMisses() int { return c.live }

// FreeMSHRs returns the number of unallocated MSHR entries.
func (c *Cache) FreeMSHRs() int { return c.mshrLimit - c.live }

// WalkDirty visits every dirty (block, mask) pair; used to flush at
// simulation end so writeback traffic is fully accounted.
func (c *Cache) WalkDirty(fn func(block geom.Addr, dirty geom.SectorMask)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid != 0 && set[i].dirty != 0 {
				fn(set[i].tag, set[i].dirty)
			}
		}
	}
}
