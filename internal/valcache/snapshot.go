package valcache

import (
	"fmt"
	"sort"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// Snapshot encodes the cache's entries and statistics. Pinned entries
// carry no ordering (they are never evicted), so they are written in
// ascending key order; transient entries are written in exact LRU order,
// least-recent first, so Restore can rebuild the intrusive list
// identically — future evictions then pick the same victims.
func (c *Cache) Snapshot(enc *checkpoint.Encoder) error {
	// Pinned slots the index points at: a snapshot restored with a
	// duplicate key leaves the earlier slot unreachable.
	var pinned []int32
	for i := range c.slots {
		if !c.slots[i].pinned {
			continue
		}
		if j, ok := c.lookup(c.slots[i].key); ok && j == int32(i) {
			pinned = append(pinned, int32(i))
		}
	}
	sort.Slice(pinned, func(a, b int) bool { return c.slots[pinned[a]].key < c.slots[pinned[b]].key })
	enc.U32(uint32(len(pinned)))
	for _, i := range pinned {
		enc.U32(c.slots[i].key)
		enc.U8(c.slots[i].use)
	}
	enc.U32(uint32(c.transient))
	for i := c.lruTail; i != nilSlot; i = c.slots[i].prev {
		enc.U32(c.slots[i].key)
		enc.U8(c.slots[i].use)
	}
	enc.U64(c.Probes)
	enc.U64(c.Hits)
	enc.U64(c.PinnedHits)
	enc.U64(c.Inserts)
	enc.U64(c.Promotions)
	enc.U64(c.Evictions)
	return nil
}

// Restore decodes state written by Snapshot into a cache of the same
// configuration, replacing all entries.
func (c *Cache) Restore(dec *checkpoint.Decoder) error {
	nPinned := dec.U32()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("valcache: %w", err)
	}
	if int(nPinned) > c.pinCap {
		return fmt.Errorf("valcache: snapshot has %d pinned entries, capacity %d: %w",
			nPinned, c.pinCap, checkpoint.ErrMismatch)
	}
	c.resetSlots()
	for i := uint32(0); i < nPinned && dec.Err() == nil; i++ {
		k := dec.U32()
		c.alloc(k, dec.U8(), true)
	}
	nTrans := dec.U32()
	c.pinned = int(nPinned)
	c.transient = int(nTrans)
	// Pinned entries never enter the LRU list (alloc leaves their links
	// nil), so resetting the list here — after the pinned loop, in the
	// encoder's field order — is equivalent to resetting it up front.
	c.lruHead, c.lruTail = nilSlot, nilSlot
	// Written least-recent first; each push-front leaves earlier (older)
	// entries deeper in the list, ending with the most recent at the head.
	for i := uint32(0); i < nTrans && dec.Err() == nil; i++ {
		k := dec.U32()
		c.listPushFront(c.alloc(k, dec.U8(), false))
	}
	c.Probes = dec.U64()
	c.Hits = dec.U64()
	c.PinnedHits = dec.U64()
	c.Inserts = dec.U64()
	c.Promotions = dec.U64()
	c.Evictions = dec.U64()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("valcache: %w", err)
	}
	return nil
}
