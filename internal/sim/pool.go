package sim

// Pool is a free-listed slab of request records addressed by index: the
// per-shard store behind typed continuations, whose Call.Arg names the
// record carrying a request's state from hop to hop. Freed records are
// reused, so a warmed pool hands out records without allocating.
//
// A pool belongs to one shard and is only touched from that shard's
// goroutine. Pointers from At are invalidated by the next Get, which may
// grow the slab; handlers re-fetch a record after any call that can
// start another request on the same pool.
type Pool[T any] struct {
	recs []T
	free []uint64
}

// Get takes a zeroed record and returns its index.
//
//simlint:hotpath
func (p *Pool[T]) Get() uint64 {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	var zero T
	p.recs = append(p.recs, zero)
	return uint64(len(p.recs) - 1)
}

// At returns record id.
//
//simlint:hotpath
func (p *Pool[T]) At(id uint64) *T { return &p.recs[id] }

// Put zeroes record id (releasing what it references) and frees it.
//
//simlint:hotpath
func (p *Pool[T]) Put(id uint64) {
	var zero T
	p.recs[id] = zero
	p.free = append(p.free, id)
}

// Live returns the number of records in use. It is zero whenever the
// owning shard is quiescent.
func (p *Pool[T]) Live() int { return len(p.recs) - len(p.free) }
