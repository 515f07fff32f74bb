package dense

import "math/bits"

// Index maps sparse uint64 keys to int32 values — slot numbers in a
// caller's array — through an open-addressed table: linear probing
// from a Fibonacci hash, deletion by shifting later members of the
// probe run back (so lookups never meet tombstones), and doubling while
// more than half full. It serves the small hot maps whose keys are too
// sparse for pages: MSHR files keyed by block and the value cache keyed
// by value. It has no walk: its order is the hash order, so callers
// that enumerate keys keep their own ordered structure. The zero Index
// is empty and ready to use.
type Index struct {
	slots []indexSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// indexSlot holds a key and its value plus one, so the zero slot is
// empty.
type indexSlot struct {
	key uint64
	val int32
}

// Len returns the number of keys held.
func (x *Index) Len() int { return x.n }

// Reserve grows the table, if need be, so that n keys fit without
// further growth.
func (x *Index) Reserve(n int) {
	if 2*n > len(x.slots) {
		x.rehash(1 << bits.Len(uint(2*n-1)))
	}
}

// Reset removes every key, keeping the table's size.
func (x *Index) Reset() {
	clear(x.slots)
	x.n = 0
}

// home returns key k's first probe slot.
func (x *Index) home(k uint64) int { return int(k * 0x9e3779b97f4a7c15 >> x.shift) }

// Get returns the value stored for k.
//
//simlint:hotpath
func (x *Index) Get(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.val == 0 {
			return 0, false
		}
		if s.key == k {
			return s.val - 1, true
		}
	}
}

// Put stores v for k, replacing any value k had.
//
//simlint:hotpath
func (x *Index) Put(k uint64, v int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.rehash(max(2*len(x.slots), 8))
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.val == 0 {
			*s = indexSlot{key: k, val: v + 1}
			x.n++
			return
		}
		if s.key == k {
			s.val = v + 1
			return
		}
	}
}

// Delete removes k, if present.
//
//simlint:hotpath
func (x *Index) Delete(k uint64) {
	if x.n == 0 {
		return
	}
	mask := len(x.slots) - 1
	i := x.home(k)
	for x.slots[i].key != k || x.slots[i].val == 0 {
		if x.slots[i].val == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j].val != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if h := x.home(x.slots[j].key); (j-h)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
}

// rehash moves every key into a new table of size slots (a power of
// two); out of line, so the rare allocation stays out of the hot bodies
// it would be inlined into.
//
//go:noinline
func (x *Index) rehash(size int) {
	old := x.slots
	x.slots = make([]indexSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.val == 0 {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].val != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}
