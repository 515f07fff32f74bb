// Package dense provides lazily-paged dense stores indexed by small
// integer keys (sector, group, unit indices). The simulator's hot paths
// previously kept this state in Go maps, whose hashing and pointer-ful
// buckets dominated both CPU (map probes on every access) and GC cost
// (scan work proportional to resident state). These stores replace them
// with flat pages allocated on first touch: O(1) array indexing, noscan
// page payloads, and a deterministic ascending-index walk for snapshot
// encoding.
//
// All stores share the map semantics the callers relied on: a key that
// was never written reads as the zero value, and explicit presence (where
// it matters — materialized DRAM sectors, counter groups) is tracked by
// an accompanying bitmap rather than by map membership. Index covers the
// remaining small maps whose keys are too sparse for pages.
package dense

import "math/bits"

// pageBits sizes one page at 4096 entries: large enough that page-table
// indirection is negligible, small enough that sparse touch patterns do
// not balloon memory.
const pageBits = 12
const pageSize = 1 << pageBits
const pageMask = pageSize - 1

// Bitmap is a lazily-paged bitset over uint64 indices with a maintained
// population count. It replaces map[uint64]bool sets whose entries are
// only ever true (Set/Clear/Get; a cleared bit is indistinguishable from
// a never-set one, exactly like map delete).
type Bitmap struct {
	pages [][]uint64
	count int
}

const bitmapPageWords = pageSize / 64

// Get reports whether bit i is set.
//
//simlint:hotpath
func (b *Bitmap) Get(i uint64) bool {
	p := i >> pageBits
	if p >= uint64(len(b.pages)) || b.pages[p] == nil {
		return false
	}
	o := i & pageMask
	return b.pages[p][o>>6]&(1<<(o&63)) != 0
}

func (b *Bitmap) page(p uint64) []uint64 {
	if p < uint64(len(b.pages)) && b.pages[p] != nil {
		return b.pages[p]
	}
	return b.grow(p)
}

// grow materializes page p. It stays out of line so that Set, inlined
// into allocation-free hot paths, keeps its one-time page allocation
// out of their bodies.
//
//go:noinline
func (b *Bitmap) grow(p uint64) []uint64 {
	for uint64(len(b.pages)) <= p {
		b.pages = append(b.pages, nil)
	}
	if b.pages[p] == nil {
		b.pages[p] = make([]uint64, bitmapPageWords)
	}
	return b.pages[p]
}

// Set sets bit i.
func (b *Bitmap) Set(i uint64) {
	pg := b.page(i >> pageBits)
	o := i & pageMask
	m := uint64(1) << (o & 63)
	if pg[o>>6]&m == 0 {
		pg[o>>6] |= m
		b.count++
	}
}

// Clear clears bit i.
//
//simlint:hotpath
func (b *Bitmap) Clear(i uint64) {
	p := i >> pageBits
	if p >= uint64(len(b.pages)) || b.pages[p] == nil {
		return
	}
	o := i & pageMask
	m := uint64(1) << (o & 63)
	if b.pages[p][o>>6]&m != 0 {
		b.pages[p][o>>6] &^= m
		b.count--
	}
}

// Count returns the number of set bits.
//
//simlint:hotpath
func (b *Bitmap) Count() int { return b.count }

// ForEach calls fn for every set bit in ascending index order.
func (b *Bitmap) ForEach(fn func(i uint64)) {
	for p, pg := range b.pages {
		if pg == nil {
			continue
		}
		base := uint64(p) << pageBits
		for w, word := range pg {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				fn(base + uint64(w<<6+t))
				word &^= 1 << t
			}
		}
	}
}

// Reset clears the bitmap, keeping allocated pages for reuse.
func (b *Bitmap) Reset() {
	for _, pg := range b.pages {
		for w := range pg {
			pg[w] = 0
		}
	}
	b.count = 0
}

// U64 is a lazily-paged array of uint64 values; unwritten entries read
// zero. It replaces map[uint64]uint64 whose readers use the zero default.
type U64 struct {
	pages [][]uint64
}

// Get returns the value at index i (zero if never set).
//
//simlint:hotpath
func (v *U64) Get(i uint64) uint64 {
	p := i >> pageBits
	if p >= uint64(len(v.pages)) || v.pages[p] == nil {
		return 0
	}
	return v.pages[p][i&pageMask]
}

// Set stores x at index i.
func (v *U64) Set(i uint64, x uint64) {
	p := i >> pageBits
	if p >= uint64(len(v.pages)) || v.pages[p] == nil {
		v.grow(p)
	}
	v.pages[p][i&pageMask] = x
}

// grow materializes page p, out of line for the reason Bitmap.grow is.
//
//go:noinline
func (v *U64) grow(p uint64) {
	for uint64(len(v.pages)) <= p {
		v.pages = append(v.pages, nil)
	}
	if v.pages[p] == nil {
		v.pages[p] = make([]uint64, pageSize)
	}
}

// U32 is U64 for uint32 values (minor and compact counters).
type U32 struct {
	pages [][]uint32
}

// Get returns the value at index i (zero if never set).
//
//simlint:hotpath
func (v *U32) Get(i uint64) uint32 {
	p := i >> pageBits
	if p >= uint64(len(v.pages)) || v.pages[p] == nil {
		return 0
	}
	return v.pages[p][i&pageMask]
}

// Set stores x at index i.
func (v *U32) Set(i uint64, x uint32) {
	p := i >> pageBits
	for uint64(len(v.pages)) <= p {
		v.pages = append(v.pages, nil)
	}
	if v.pages[p] == nil {
		v.pages[p] = make([]uint32, pageSize)
	}
	v.pages[p][i&pageMask] = x
}

// SectorBytes is the fixed record size of a Sectors store entry (one
// 32 B DRAM sector).
const SectorBytes = 32

// Sectors is a lazily-paged store of 32-byte records with explicit
// presence, replacing map[addr][]byte DRAM images. Pages are flat byte
// arrays (noscan: the GC never walks them), and Lookup returns a slice
// aliasing page storage so callers mutate records in place without
// copying.
type Sectors struct {
	pages   [][]byte
	present Bitmap
}

// Lookup returns the record at index i and whether it is present. The
// returned slice aliases store memory; it is valid until the store is
// restored over.
//
//simlint:hotpath
func (s *Sectors) Lookup(i uint64) ([]byte, bool) {
	if !s.present.Get(i) {
		return nil, false
	}
	pg := s.pages[i>>pageBits]
	o := (i & pageMask) * SectorBytes
	return pg[o : o+SectorBytes : o+SectorBytes], true
}

// Put marks record i present and returns its 32-byte slice for the
// caller to fill (zeroed if never previously written).
func (s *Sectors) Put(i uint64) []byte {
	p := i >> pageBits
	for uint64(len(s.pages)) <= p {
		s.pages = append(s.pages, nil)
	}
	if s.pages[p] == nil {
		s.pages[p] = make([]byte, pageSize*SectorBytes)
	}
	s.present.Set(i)
	o := (i & pageMask) * SectorBytes
	return s.pages[p][o : o+SectorBytes : o+SectorBytes]
}

// Delete removes record i (its bytes are zeroed so a later Put starts
// clean).
//
//simlint:hotpath
func (s *Sectors) Delete(i uint64) {
	if !s.present.Get(i) {
		return
	}
	pg := s.pages[i>>pageBits]
	o := (i & pageMask) * SectorBytes
	clear(pg[o : o+SectorBytes])
	s.present.Clear(i)
}

// Count returns the number of present records.
//
//simlint:hotpath
func (s *Sectors) Count() int { return s.present.Count() }

// ForEach calls fn for every present record in ascending index order.
// The slice passed to fn aliases store memory.
func (s *Sectors) ForEach(fn func(i uint64, rec []byte)) {
	s.present.ForEach(func(i uint64) {
		pg := s.pages[i>>pageBits]
		o := (i & pageMask) * SectorBytes
		fn(i, pg[o:o+SectorBytes:o+SectorBytes])
	})
}
