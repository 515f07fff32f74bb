package cache

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// Snapshot encodes the cache's dynamic state — every line's tag,
// sector-valid/dirty masks and LRU stamp, the LRU clock, and the stats
// counters — in fixed set/way order. Configuration is not encoded; the
// restoring side rebuilds the cache from the same Config and Restore
// cross-checks the geometry. The cache must be quiescent: outstanding
// MSHRs hold continuations that cannot be serialized, so snapshotting
// with in-flight misses returns ErrNotQuiescent.
func (c *Cache) Snapshot(enc *checkpoint.Encoder) error {
	if c.live != 0 {
		return fmt.Errorf("cache %q: %d in-flight MSHRs: %w",
			c.cfg.Name, c.live, checkpoint.ErrNotQuiescent)
	}
	enc.U32(uint32(len(c.lines) / c.cfg.Ways))
	enc.U32(uint32(c.cfg.Ways))
	enc.U64(c.lruClock)
	for i := range c.lines {
		enc.U64(uint64(c.lines[i].tag))
		enc.U8(uint8(c.lines[i].valid))
		enc.U8(uint8(c.lines[i].dirty))
		enc.U64(c.lines[i].lru)
	}
	enc.U64(c.Stats.Hits)
	enc.U64(c.Stats.Misses)
	enc.U64(c.Stats.MSHRMerges)
	enc.U64(c.Stats.Evictions)
	enc.U64(c.Stats.DirtyEvictions)
	return nil
}

// Restore decodes state written by Snapshot into a freshly built cache
// of the same configuration.
func (c *Cache) Restore(dec *checkpoint.Decoder) error {
	if c.live != 0 {
		return fmt.Errorf("cache %q: restore into a cache with in-flight MSHRs: %w",
			c.cfg.Name, checkpoint.ErrNotQuiescent)
	}
	nSets, ways := dec.U32(), dec.U32()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("cache %q: %w", c.cfg.Name, err)
	}
	if sets := len(c.lines) / c.cfg.Ways; int(nSets) != sets || int(ways) != c.cfg.Ways {
		return fmt.Errorf("cache %q: snapshot geometry %dx%d, cache is %dx%d: %w",
			c.cfg.Name, nSets, ways, sets, c.cfg.Ways, checkpoint.ErrMismatch)
	}
	c.lruClock = dec.U64()
	for i := range c.lines {
		c.lines[i].tag = geom.Addr(dec.U64())
		c.lines[i].valid = geom.SectorMask(dec.U8())
		c.lines[i].dirty = geom.SectorMask(dec.U8())
		c.lines[i].lru = dec.U64()
		c.setTag(i)
	}
	c.Stats.Hits = dec.U64()
	c.Stats.Misses = dec.U64()
	c.Stats.MSHRMerges = dec.U64()
	c.Stats.Evictions = dec.U64()
	c.Stats.DirtyEvictions = dec.U64()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("cache %q: %w", c.cfg.Name, err)
	}
	return nil
}
