package secmem

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/bmt"
	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// request is one in-flight secure read or writeback: the state its
// continuation handlers share as it moves through the datapath. Records
// live in the engine's pool and a handler's Call.Arg is the record index
// (see sim.Pool), so no hop allocates.
//
// A request joins its memory activity through one completion counter:
// every fetch it starts arms the join, and once acquisition is sealed the
// last completion runs the next stage (see joined). The serial
// compact-overflow path runs a second, nested join of its own.
type request struct {
	local   geom.Addr
	write   bool
	freshOK bool // counter verification has not failed

	arms   int32
	sealed bool
	// The serial compact-overflow join: phase 1 while the compact unit is
	// in flight, phase 2 while the original unit is; 0 when unused.
	subArms   int32
	subSealed bool
	subPhase  uint8

	// MAC-verification facts, fixed at decrypt time.
	stale, mismatch, tainted bool

	pt   [geom.SectorSize]byte // write data, or the decrypted read
	done sim.Call              // typed continuation (ReadCall, WritebackCall)
	fn   func(ReadResult)      // closure continuation (Read)
}

// metaOp is one pooled metadata operation: a sector fill landing in a
// metadata cache, a tree-node update waiting for its sector, or a fetch
// parked on a full MSHR file.
type metaOp struct {
	mc   *cache.Cache
	m    cache.MSHR
	addr geom.Addr
	mask geom.SectorMask
	cl   stats.Class
	done sim.Call
}

// handlers are the engine's continuation targets, bound once in New so
// that building a Call never allocates a method value.
type handlers struct {
	arm, decrypted, macFetched, macChecked   func(uint64)
	writeEncrypted, writeDone, nosecReadDone func(uint64)
	metaFill, nodeFetched, refetch           func(uint64)
}

func (e *Engine) bindHandlers() {
	e.h = handlers{
		arm:            e.onArm,
		decrypted:      e.onDecrypted,
		macFetched:     e.onMACFetched,
		macChecked:     e.onMACChecked,
		writeEncrypted: e.onWriteEncrypted,
		writeDone:      e.finishWrite,
		nosecReadDone:  e.onNoSecReadDone,
		metaFill:       e.onMetaFill,
		nodeFetched:    e.onNodeFetched,
		refetch:        e.onRefetch,
	}
}

// arm registers one more outstanding completion on request id's join
// (sub selects the serial compact-overflow join) and returns the
// continuation that retires it.
//
//simlint:hotpath
func (e *Engine) arm(id uint64, sub bool) sim.Call {
	r := e.reqs.At(id)
	if sub {
		r.subArms++
		return sim.Call{H: e.h.arm, Arg: id<<1 | 1}
	}
	r.arms++
	return sim.Call{H: e.h.arm, Arg: id << 1}
}

// onArm retires one join arm; arg is the request index shifted left one
// bit, with the low bit selecting the serial join.
//
//simlint:hotpath
func (e *Engine) onArm(arg uint64) {
	id := arg >> 1
	r := e.reqs.At(id)
	if arg&1 != 0 {
		r.subArms--
		if r.subArms == 0 && r.subSealed {
			e.subJoined(id)
		}
		return
	}
	r.arms--
	if r.arms == 0 && r.sealed {
		e.joined(id)
	}
}

// seal marks arm registration complete; if everything already finished,
// the next stage runs immediately.
//
//simlint:hotpath
func (e *Engine) seal(id uint64) {
	r := e.reqs.At(id)
	r.sealed = true
	if r.arms == 0 {
		e.joined(id)
	}
}

// joined runs a request's next stage once its memory activity is done:
// reads decrypt, counter-mode writes commit, ssm writes have landed.
//
//simlint:hotpath
func (e *Engine) joined(id uint64) {
	r := e.reqs.At(id)
	switch {
	case !r.write:
		// Data and counters have arrived; decrypt, then verify.
		e.eng.ScheduleCall(aesLatency, sim.Call{H: e.h.decrypted, Arg: id})
	case e.cfg.Verifier == VerifierShares:
		e.finishWrite(id)
	default:
		if !r.freshOK {
			// The counter fetched for this write failed freshness
			// verification. The controller raises the alarm; the write
			// itself still commits, rewriting the unit with fresh state
			// (see dirtyOriginalCounter), as real hardware would after
			// flagging the violation.
			e.st.Sec.ReplayDetected++
			e.st.Sec.Verdicts.Record(stats.VerdictDetectedByBMT)
		}
		e.commitWrite(id)
	}
}

// subSeal seals the serial join's current phase.
func (e *Engine) subSeal(id uint64) {
	r := e.reqs.At(id)
	r.subSealed = true
	if r.subArms == 0 {
		e.subJoined(id)
	}
}

// subJoined advances the serial compact-overflow path: once the compact
// unit is on-chip (phase 1) the original counter unit is fetched; once
// that lands (phase 2) the path retires its arm on the outer join.
func (e *Engine) subJoined(id uint64) {
	r := e.reqs.At(id)
	if r.subPhase == 1 {
		r.subPhase, r.subSealed = 2, false
		e.fetchCounterUnit(e.sectorIdx(r.local), id, true)
		e.subSeal(id)
		return
	}
	r.subPhase = 0
	e.onArm(id << 1)
}

// ReadResult reports a completed secure read.
type ReadResult struct {
	// Data is the decrypted sector plaintext.
	Data []byte
	// OK is false when integrity or freshness verification failed.
	OK bool
	// ValueVerified is true when the sector was authenticated by the
	// value cache alone.
	ValueVerified bool
}

// Pending returns the number of in-flight requests (for drain loops).
func (e *Engine) Pending() int { return e.reqs.Live() }

// Read performs a secure read of the 32 B sector at partition-local
// address local, invoking done (nullable) with the plaintext when all
// security checks complete. The result's Data is the caller's to keep.
func (e *Engine) Read(local geom.Addr, done func(ReadResult)) {
	e.read(local, sim.Call{}, done)
}

// ReadCall is Read with a typed continuation: when all security checks
// complete it runs done, during which Completed reports the result.
func (e *Engine) ReadCall(local geom.Addr, done sim.Call) {
	e.read(local, done, nil)
}

// Completed returns the result of the read whose ReadCall continuation
// is running. Data aliases an engine buffer and is valid only until that
// continuation returns.
func (e *Engine) Completed() ReadResult {
	return ReadResult{Data: e.out[:], OK: e.outOK, ValueVerified: e.outVV}
}

//simlint:hotpath
func (e *Engine) read(local geom.Addr, done sim.Call, fn func(ReadResult)) {
	local = geom.SectorAddr(local)
	id := e.reqs.Get()
	r := e.reqs.At(id)
	r.local, r.freshOK, r.done, r.fn = local, true, done, fn
	switch e.cfg.Verifier {
	case VerifierShares:
		e.ssmRead(local, id)
		return
	case VerifierNone:
		e.ch.AccessCall(local, false, stats.Data, sim.Call{H: e.h.nosecReadDone, Arg: id})
		return
	}
	// Demand data fetch.
	e.ch.AccessCall(local, false, stats.Data, e.arm(id, false))
	// Counter acquisition (may be free, cached, or multiple fetches).
	e.acquireCounter(local, id)
	e.seal(id)
}

// onNoSecReadDone completes a nosec read. No verification exists: a read
// of attacker-mutated data succeeds and returns the corruption — the
// baseline's defining failure.
func (e *Engine) onNoSecReadDone(id uint64) {
	r := e.reqs.At(id)
	if e.taintData.Get(e.sectorIdx(r.local)) {
		e.st.Sec.TaintedReads++
		e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
	}
	e.plaintextInto(r.pt[:], r.local)
	e.finishRead(id, true, false)
}

// finishRead retires read id and runs its continuation.
//
//simlint:hotpath
func (e *Engine) finishRead(id uint64, ok, valueVerified bool) {
	r := e.reqs.At(id)
	done, fn := r.done, r.fn
	e.out, e.outOK, e.outVV = r.pt, ok, valueVerified
	e.reqs.Put(id)
	if fn != nil {
		e.deliver(fn)
		return
	}
	if !done.IsZero() {
		done.Run()
	}
}

// deliver hands the completed read to a closure continuation, in a
// plaintext buffer of its own.
func (e *Engine) deliver(fn func(ReadResult)) {
	r := e.Completed()
	r.Data = append([]byte(nil), r.Data...)
	fn(r)
}

// onDecrypted runs the post-decrypt verification stage.
//
//simlint:hotpath
func (e *Engine) onDecrypted(id uint64) {
	if e.cfg.Verifier == VerifierShares {
		e.ssmCompleteRead(id)
		return
	}
	r := e.reqs.At(id)
	i := e.sectorIdx(r.local)
	fresh := e.plaintextInto(r.pt[:], r.local)
	r.tainted = e.taintData.Get(i)
	if r.tainted {
		e.st.Sec.TaintedReads++
	}

	if !r.freshOK {
		// Counter/tree verification already failed: replay detected.
		e.st.Sec.ReplayDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByBMT)
		e.finishRead(id, false, false)
		return
	}

	if e.vcache != nil {
		res := e.vcache.VerifySector(r.pt[:])
		if res.Verified {
			e.st.Sec.ValueVerified++
			if r.tainted {
				// Mutated ciphertext decrypted to words that still
				// cleared the match threshold: a false accept, the event
				// the paper's Eq. 1 bounds.
				e.st.Sec.Verdicts.Record(stats.VerdictAcceptedByValueCache)
			}
			e.vcache.ObserveSector(r.pt[:])
			e.finishRead(id, true, true)
			return
		}
	}

	// Fall back to conventional MAC verification. The verification
	// outcome is determined by the sector's state as of decrypt time (a
	// concurrent writeback committing while the MAC block is in flight
	// must not affect this read's result), so snapshot it now; the fetch
	// and MAC-engine latency that follow are purely timing. A sector
	// this read touched first holds the MAC just computed for it.
	r.stale = e.macStale.Get(i)
	r.mismatch = !r.stale && !fresh && e.currentMAC(r.local) != e.macs.Get(i)
	ma := e.macAddrOf(i)
	e.fetchMeta(e.macCache, ma, e.macCache.MaskFor(ma), stats.MAC, sim.Call{H: e.h.macFetched, Arg: id})
}

// onMACFetched starts the MAC engine once the MAC sector is on-chip.
//
//simlint:hotpath
func (e *Engine) onMACFetched(id uint64) {
	e.eng.ScheduleCall(macLatency, sim.Call{H: e.h.macChecked, Arg: id})
}

// onMACChecked records the MAC verdict fixed at decrypt time and
// completes the read.
//
//simlint:hotpath
func (e *Engine) onMACChecked(id uint64) {
	r := e.reqs.At(id)
	e.st.Sec.MACVerified++
	ok := true
	if r.stale {
		// A write-guarantee sector should always value-verify; reaching
		// the MAC path with a stale MAC means either the guarantee logic
		// is unsound or an attacker interfered.
		ok = false
		e.st.Sec.TamperDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByMAC)
		if debugGuarantee != nil {
			debugGuarantee(e, r.local, r.pt[:])
		}
	} else if r.mismatch {
		ok = false
		e.st.Sec.TamperDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByMAC)
	} else if r.tainted {
		// Tainted data sailed through MAC comparison — the failure an
		// integrity-enabled scheme must never produce (the differential
		// oracle asserts this stays zero).
		e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
	}
	if e.vcache != nil {
		e.vcache.ObserveSector(r.pt[:])
	}
	e.finishRead(id, ok, false)
}

// Writeback performs a secure write of a dirty 32 B sector (an L2
// eviction). done (nullable) fires when the data transaction completes.
func (e *Engine) Writeback(local geom.Addr, data []byte, done func()) {
	e.WritebackCall(local, data, sim.Call{Fn: done})
}

// WritebackCall is Writeback with a typed continuation (zero for none).
// data is copied before it returns.
//
//simlint:hotpath
func (e *Engine) WritebackCall(local geom.Addr, data []byte, done sim.Call) {
	local = geom.SectorAddr(local)
	if len(data) != geom.SectorSize {
		panic(fmt.Sprintf("secmem: writeback of %d bytes", len(data)))
	}
	id := e.reqs.Get()
	r := e.reqs.At(id)
	r.local, r.write, r.freshOK, r.done = local, true, true, done
	copy(r.pt[:], data)
	switch e.cfg.Verifier {
	case VerifierShares:
		e.ssmWrite(id)
		return
	case VerifierNone:
		i := e.sectorIdx(local)
		copy(e.mem.Put(i), r.pt[:])
		e.taintData.Clear(i) // overwritten: corruption gone
		e.ch.AccessCall(local, true, stats.Data, sim.Call{H: e.h.writeDone, Arg: id})
		return
	}

	// The first write to a region ends its common-counter (all-zero) era.
	if e.cfg.Versions == VersionsCommonRegion {
		e.regionWritten.Set(e.regionOf(local))
	}
	// The counter must be on-chip (and verified) before it is bumped.
	e.acquireCounter(local, id)
	e.seal(id)
}

// onWriteEncrypted issues the data write once encryption is done.
//
//simlint:hotpath
func (e *Engine) onWriteEncrypted(id uint64) {
	if e.cfg.Verifier == VerifierShares {
		e.ssmWriteShares(id)
		return
	}
	e.ch.AccessCall(e.reqs.At(id).local, true, stats.Data, sim.Call{H: e.h.writeDone, Arg: id})
}

// finishWrite retires write id, once its data has landed, and runs its
// continuation.
//
//simlint:hotpath
func (e *Engine) finishWrite(id uint64) {
	done := e.reqs.At(id).done
	e.reqs.Put(id)
	if !done.IsZero() {
		done.Run()
	}
}

// commitWrite runs once the counter is available: bump it, update trees
// and MAC, encrypt and write the data.
func (e *Engine) commitWrite(id uint64) {
	r := e.reqs.At(id)
	local := r.local
	pt := r.pt[:] // stable: nothing below starts another request
	i := e.sectorIdx(local)

	mgxDerived := e.cfg.Versions == VersionsDerived && e.mgxDerived.Get(i)
	if mgxDerived {
		e.mgxBumpVersion(i)
	} else {
		e.bumpCounter(local)
	}
	e.storeCiphertext(local, pt)
	// The sector's DRAM copy (and MAC, below) is rewritten wholesale:
	// any earlier mutation of it is gone.
	e.taintData.Clear(i)
	e.taintMeta.Clear(i)

	if mgxDerived {
		// A derived sector has no stored counter to dirty and no tree
		// unit to refresh — that absence is the scheme's entire saving.
	} else if e.compact == nil {
		e.dirtyOriginalCounter(i)
	} else {
		// While a write is absorbed by the compact layer, the original
		// counters and main BMT stay untouched in memory — that is the
		// whole bandwidth saving. The original copy is written only when
		// a counter saturates (propagation), when the block is disabled,
		// or once the sector runs on original counters.
		out, justDisabled := e.compact.NoteWrite(i)
		sat := e.compact.Saturation()
		justSaturated := e.split.Minor(i) == sat && e.split.Major(e.split.GroupOf(i)) == 0
		if out == counters.ServedCompact || justSaturated {
			// The compact value changed: dirty the compact sector and
			// update the small tree. Writing the unit replaces any
			// attacker-replayed DRAM copy with fresh state.
			cca := e.cctrSectorAddr(i)
			e.handleEviction(e.cctrCache.Insert(cca, e.cctrCache.MaskFor(cca), true), stats.CompactCounter, false)
			cu := e.cctrUnitOf(i)
			e.cctrReplayed.Clear(cu)
			e.ctree.SetUnitHash(cu, e.compactUnitHash(cu))
		}
		if out != counters.ServedCompact {
			// Saturated or disabled: this write lives in the originals.
			e.dirtyOriginalCounter(i)
		}
		if justDisabled {
			// The disable bit changes what originalMinor reports for
			// the whole block: no memoized hash survives it.
			e.ctrMemo.valid.Reset()
			e.cctrMemo.valid.Reset()
			// One-time copy of the block's surviving compact counters to
			// the original store: two original counter sectors written
			// (paper §IV-D; 2× compaction), and the main tree now covers
			// the propagated values.
			e.ch.Access(e.ctrUnitAddr(e.ctrUnitOf(i)), true, stats.Counter, nil)
			e.ch.Access(e.ctrUnitAddr(e.ctrUnitOf(i))+geom.SectorSize, true, stats.Counter, nil)
			e.refreshDisabledBlockHashes(i)
		}
	}

	// Value bookkeeping and the deferred-MAC decision.
	skipMAC := false
	if e.vcache != nil {
		e.vcache.ObserveSector(pt)
		if e.vcache.WriteGuaranteed(pt) {
			skipMAC = true
		}
	}
	if skipMAC {
		e.st.Sec.MACSkippedWrites++
		e.macStale.Set(i)
	} else {
		e.st.Sec.MACWrites++
		e.setMAC(i, e.currentMAC(local))
		e.macStale.Clear(i)
		ma := e.macAddrOf(i)
		e.handleEviction(e.macCache.Insert(ma, e.macCache.MaskFor(ma), true), stats.MAC, false)
	}

	// Encrypt latency then the data write transaction.
	e.eng.ScheduleCall(aesLatency, sim.Call{H: e.h.writeEncrypted, Arg: id})
}

// dirtyOriginalCounter marks sector i's original counter sector dirty
// and refreshes the main tree's hash of its unit. Under the eager-update
// scheme the whole path to the root is written back immediately instead
// of waiting for evictions.
func (e *Engine) dirtyOriginalCounter(i uint64) {
	ca := e.ctrSectorAddr(i)
	e.handleEviction(e.ctrCache.Insert(ca, e.ctrCache.MaskFor(ca), true), stats.Counter, false)
	u := e.ctrUnitOf(i)
	// Writing the unit replaces any attacker-replayed DRAM copy.
	e.ctrReplayed.Clear(u)
	e.tree.SetUnitHash(u, e.counterUnitHash(u))
	if e.cfg.Tree == TreeEager {
		e.eagerWritePath(e.tree, e.lay.bmtBase, u, stats.BMT)
	}
}

// eagerWritePath charges one write per non-root tree node on unit u's
// path — the eager scheme's cost: every counter update rewrites its
// entire verification chain in memory.
func (e *Engine) eagerWritePath(t *bmt.Tree, base geom.Addr, u uint64, cl stats.Class) {
	for _, ref := range t.Path(u) {
		if t.IsRoot(ref) {
			break
		}
		e.ch.Access(geom.SectorAddr(base+t.NodeAddr(ref)), true, cl, nil)
	}
}

// refreshDisabledBlockHashes re-hashes every main-tree unit covering a
// just-disabled compact block: the disable event propagated the block's
// surviving compact counters to the original copy.
func (e *Engine) refreshDisabledBlockHashes(i uint64) {
	per := uint64(e.cfg.Compact.CountersPerSector())
	blockSectors := 4 * per // one compact block covers 4 compact sectors
	start := i / blockSectors * blockSectors
	// ctrUnitOf is monotone in s, so skipping repeats of the previous
	// unit visits each covering unit once.
	prev := ^uint64(0)
	for s := start; s < start+blockSectors && s < e.lay.dataSectors; s += uint64(e.split.Config().GroupSize) {
		u := e.ctrUnitOf(s)
		if u == prev {
			continue
		}
		prev = u
		e.ctrReplayed.Clear(u) // propagation rewrites the unit
		e.tree.SetUnitHash(u, e.counterUnitHash(u))
	}
}

// bumpCounter increments sector local's counter, capturing group
// plaintexts first so a minor overflow can re-encrypt them.
func (e *Engine) bumpCounter(local geom.Addr) {
	i := e.sectorIdx(local)
	willOverflow := e.split.Minor(i) == uint32(1)<<uint(e.split.Config().MinorBits)-1
	if willOverflow {
		clear(e.overflowPlain)
		g := e.split.GroupOf(i)
		base := g * uint64(e.split.Config().GroupSize)
		for k := 0; k < e.split.Config().GroupSize; k++ {
			if e.cfg.Versions == VersionsDerived && e.mgxDerived.Get(base+uint64(k)) {
				// Derived group-mates don't ride the split counters: the
				// major bump doesn't change their effective version, so
				// they must not be re-encrypted.
				continue
			}
			sa := geom.Addr((base + uint64(k)) * geom.SectorSize)
			if _, ok := e.mem.Lookup(base + uint64(k)); ok {
				pt := make([]byte, geom.SectorSize)
				e.plaintextInto(pt, sa)
				e.overflowPlain[sa] = pt
			}
		}
	}
	e.split.Increment(i)
	// The increment (and any overflow it caused) changed only i's group:
	// its counter unit and the compact units overlapping it.
	e.ctrMemo.valid.Clear(e.ctrUnitOf(i))
	if e.compact != nil {
		lo, hi := e.split.GroupSectors(e.split.GroupOf(i))
		for cu := e.cctrUnitOf(lo); cu <= e.cctrUnitOf(hi-1); cu++ {
			e.cctrMemo.valid.Clear(cu)
		}
	}
}

// --- counter acquisition ---

// unitFetchMask is the sector mask for a counter-unit fetch through mc:
// the whole 128 B block for GranAll128, a single 32 B sector otherwise.
func (e *Engine) unitFetchMask(mc *cache.Cache, unitAddr geom.Addr) geom.SectorMask {
	if e.cfg.Granularity.CounterUnitBytes() == geom.BlockSize {
		return geom.AllSectors
	}
	return mc.MaskFor(unitAddr)
}

// acquireCounter arranges for sector local's encryption counter to be
// on-chip and verified, joining all resulting memory activity onto
// request id. The request's freshOK is cleared if counter verification
// fails (replay detection).
//
//simlint:hotpath
func (e *Engine) acquireCounter(local geom.Addr, id uint64) {
	i := e.sectorIdx(local)

	// mgx fast path: a derived sector's version is regenerated on-chip
	// from the stream cursor — no counter fetch, no tree walk, nothing
	// to verify. Irregular sectors fall through to the stored path.
	if e.cfg.Versions == VersionsDerived {
		if e.mgxClassify(i, local) {
			e.st.Sec.DerivedVersions++
			return
		}
		e.st.Sec.DerivedFallbacks++
	}

	// Common-counters fast path: a never-written region has all-zero
	// counters known on-chip; no counter or tree traffic at all.
	if e.cfg.Versions == VersionsCommonRegion && !e.regionWritten.Get(e.regionOf(local)) {
		return
	}

	if e.compact != nil {
		switch e.compact.Classify(i) {
		case counters.ServedCompact:
			e.st.Sec.CompactHits++
			e.fetchCompactUnit(i, id, false)
			return
		case counters.ServedOverflowed:
			e.st.Sec.CompactOverflow++
			// Serial: discover saturation in the compact layer, then go
			// to the original counters (the paper's double access). The
			// serial path holds one arm of the outer join until done.
			r := e.reqs.At(id)
			r.arms++
			r.subArms, r.subSealed, r.subPhase = 0, false, 1
			e.fetchCompactUnit(i, id, true)
			e.subSeal(id)
			return
		default: // counters.ServedDisabled
			e.st.Sec.CompactDisabled++
		}
	}
	e.fetchCounterUnit(i, id, false)
}

// fetchCounterUnit brings sector i's original counter unit on-chip,
// verifying it through the BMT, on request id's join (sub: the serial
// one).
//
//simlint:hotpath
func (e *Engine) fetchCounterUnit(i uint64, id uint64, sub bool) {
	u := e.ctrUnitOf(i)
	ua := e.ctrUnitAddr(u)
	mask := e.unitFetchMask(e.ctrCache, ua)

	before := e.ctrCache.Probe(ua) & mask
	e.fetchMeta(e.ctrCache, ua, mask, stats.Counter, e.arm(id, sub))
	if before == mask {
		return // cache hit: already verified when it was filled
	}
	// Miss path: the fetched unit must be verified against the tree.
	if !e.tree.VerifyUnit(u, e.counterUnitHash(u)) {
		e.reqs.At(id).freshOK = false
	}
	if e.cfg.Tree != TreeNoTraffic {
		e.walkTree(e.tree, e.bmtCache, e.lay.bmtBase, u, stats.BMT, id, sub)
	}
}

// fetchCompactUnit brings sector i's compact counter unit on-chip,
// verifying it through the compact tree.
//
//simlint:hotpath
func (e *Engine) fetchCompactUnit(i uint64, id uint64, sub bool) {
	u := e.cctrUnitOf(i)
	ua := e.cctrUnitAddr(u)
	mask := e.unitFetchMask(e.cctrCache, ua)

	before := e.cctrCache.Probe(ua) & mask
	e.fetchMeta(e.cctrCache, ua, mask, stats.CompactCounter, e.arm(id, sub))
	if before == mask {
		return
	}
	if !e.ctree.VerifyUnit(u, e.compactUnitHash(u)) {
		e.reqs.At(id).freshOK = false
	}
	if e.cfg.Tree != TreeNoTraffic {
		e.walkTree(e.ctree, e.cbmtCache, e.lay.cbmtBase, u, stats.CompactBMT, id, sub)
	}
}

// walkTree performs the verification walk for counter unit u: fetch tree
// nodes bottom-up until one hits in the (verified) metadata cache or the
// on-chip root is reached. Fetching a node whose DRAM copy an attacker
// corrupted fails verification against its parent and clears the
// request's freshOK.
//
//simlint:hotpath
func (e *Engine) walkTree(t *bmt.Tree, mc *cache.Cache, base geom.Addr, u uint64, cl stats.Class, id uint64, sub bool) {
	for _, ref := range t.Path(u) {
		if t.IsRoot(ref) {
			break // root is on-chip: free and always trusted
		}
		na := base + t.NodeAddr(ref)
		nodeMask := e.nodeFetchMask(mc, na)
		if mc.Probe(na)&nodeMask == nodeMask {
			mc.Lookup(na, nodeMask, false, nil) // LRU touch
			break                               // verified boundary reached
		}
		e.st.Sec.BMTNodeVerifies++
		if e.bmtTampered[na] {
			e.reqs.At(id).freshOK = false
		}
		e.fetchMeta(mc, na, nodeMask, cl, e.arm(id, sub))
	}
}

// nodeFetchMask is the sector mask of one tree-node fetch.
func (e *Engine) nodeFetchMask(mc *cache.Cache, nodeAddr geom.Addr) geom.SectorMask {
	if e.cfg.Granularity.BMTNodeBytes() == geom.BlockSize {
		return geom.AllSectors
	}
	return mc.MaskFor(nodeAddr)
}

// fetchMeta fetches (addr, mask) through metadata cache mc and runs done
// when the requested sectors are present.
//
//simlint:hotpath
func (e *Engine) fetchMeta(mc *cache.Cache, addr geom.Addr, mask geom.SectorMask, cl stats.Class, done sim.Call) {
	out, need, m := mc.Lookup(addr, mask, false, &done)
	switch out {
	case cache.Hit:
		e.eng.ScheduleCall(0, done)
	case cache.Miss:
		e.issueMetaFill(mc, m, addr, need, cl)
	case cache.MissNoMSHR:
		e.parkMetaFetch(mc, addr, mask, cl, done)
	}
	// MissMerged: Lookup registered done on the in-flight MSHR.
}

// parkMetaFetch parks a fetch until some fill frees an MSHR (models the
// MSHR-full stall without polling).
func (e *Engine) parkMetaFetch(mc *cache.Cache, addr geom.Addr, mask geom.SectorMask, cl stats.Class, done sim.Call) {
	id := e.metaOps.Get()
	*e.metaOps.At(id) = metaOp{mc: mc, addr: addr, mask: mask, cl: cl, done: done}
	e.mshrWait.Push(sim.Call{H: e.h.refetch, Arg: id})
}

// onRefetch retries a parked fetch.
func (e *Engine) onRefetch(id uint64) {
	op := *e.metaOps.At(id)
	e.metaOps.Put(id)
	e.fetchMeta(op.mc, op.addr, op.mask, op.cl, op.done)
}

// issueMetaFill issues DRAM reads for the needed sectors, filling the
// cache as each lands; waiters resume when the MSHR completes.
//
//simlint:hotpath
func (e *Engine) issueMetaFill(mc *cache.Cache, m cache.MSHR, addr geom.Addr, need geom.SectorMask, cl stats.Class) {
	block := addr &^ geom.Addr(geom.BlockSize-1)
	for s := 0; s < geom.SectorsPerBlock; s++ {
		if !need.Has(s) {
			continue
		}
		id := e.metaOps.Get()
		*e.metaOps.At(id) = metaOp{mc: mc, m: m, mask: 1 << s, cl: cl}
		e.ch.AccessCall(block+geom.Addr(s*geom.SectorSize), false, cl, sim.Call{H: e.h.metaFill, Arg: id})
	}
}

// onMetaFill installs one landed metadata sector and, when it completes
// its MSHR, resumes the waiters.
//
//simlint:hotpath
func (e *Engine) onMetaFill(id uint64) {
	op := *e.metaOps.At(id)
	e.metaOps.Put(id)
	ev, done, waiters := op.mc.FillSectors(op.m, op.mask, false)
	e.handleEviction(ev, op.cl, op.mc == e.bmtCache || op.mc == e.cbmtCache)
	if done {
		for _, w := range waiters {
			w.Run()
		}
		e.releaseMSHRWaiters()
	}
}

// handleEviction writes back the dirty sectors of an evicted metadata
// block and, for counter/tree blocks under lazy update, propagates the
// update to the parent tree node.
//
//simlint:hotpath
func (e *Engine) handleEviction(ev cache.Eviction, cl stats.Class, isTreeCache bool) {
	if ev.Dirty == 0 {
		return
	}
	for s := 0; s < geom.SectorsPerBlock; s++ {
		if ev.Dirty.Has(s) {
			e.ch.AccessCall(ev.Addr+geom.Addr(s*geom.SectorSize), true, cl, sim.Call{})
		}
	}
	switch cl {
	case stats.Counter:
		e.propagateDirty(e.tree, e.bmtCache, e.lay.bmtBase, e.unitOfCtrAddr(ev.Addr), stats.BMT)
	case stats.CompactCounter:
		e.propagateDirty(e.ctree, e.cbmtCache, e.lay.cbmtBase, e.unitOfCctrAddr(ev.Addr), stats.CompactBMT)
	case stats.BMT:
		if isTreeCache {
			e.propagateNodeDirty(e.tree, e.bmtCache, e.lay.bmtBase, ev.Addr, stats.BMT)
		}
	case stats.CompactBMT:
		if isTreeCache {
			e.propagateNodeDirty(e.ctree, e.cbmtCache, e.lay.cbmtBase, ev.Addr, stats.CompactBMT)
		}
	}
}

// unitOfCtrAddr maps a counter-region local address back to a unit index.
func (e *Engine) unitOfCtrAddr(a geom.Addr) uint64 {
	return uint64(a-e.lay.ctrBase) / uint64(e.cfg.Granularity.CounterUnitBytes())
}

func (e *Engine) unitOfCctrAddr(a geom.Addr) uint64 {
	return uint64(a-e.lay.cctrBase) / uint64(e.cfg.Granularity.CounterUnitBytes())
}

// propagateDirty marks unit u's level-0 parent node dirty in the tree
// cache (the lazy-update scheme: a dirty counter writeback makes its
// parent hash stale in memory until that node is itself written back).
func (e *Engine) propagateDirty(t *bmt.Tree, mc *cache.Cache, base geom.Addr, u uint64, cl stats.Class) {
	if e.cfg.Tree != TreeLazy {
		// An eager tree already wrote the whole path at update time; a
		// traffic-elided one charges nothing.
		return
	}
	path := t.Path(u)
	if len(path) == 0 || t.IsRoot(path[0]) {
		return
	}
	// Only the parent's 32 B sector holding this child's hash changes.
	slot := u % uint64(t.Config().Arity())
	na := base + t.NodeAddr(path[0]) + geom.Addr(slot*bmt.HashBytes/geom.SectorSize*geom.SectorSize)
	e.markNodeDirty(mc, na, cl)
}

// markNodeDirty dirties one tree-node sector in its cache. An absent
// sector is fetched through the cache first (read-modify-write), so
// concurrent propagations to the same node merge in the MSHRs instead of
// each paying a DRAM read.
func (e *Engine) markNodeDirty(mc *cache.Cache, na geom.Addr, cl stats.Class) {
	mask := mc.MaskFor(na)
	if mc.MarkDirty(na, mask) {
		return
	}
	id := e.metaOps.Get()
	*e.metaOps.At(id) = metaOp{mc: mc, addr: na, mask: mask, cl: cl}
	e.fetchMeta(mc, na, mask, cl, sim.Call{H: e.h.nodeFetched, Arg: id})
}

// onNodeFetched dirties a tree-node sector once its fetch has landed.
func (e *Engine) onNodeFetched(id uint64) {
	op := *e.metaOps.At(id)
	e.metaOps.Put(id)
	if !op.mc.MarkDirty(op.addr, op.mask) {
		// Filled and already evicted again (cache thrash): charge the
		// update write directly rather than loop.
		e.ch.Access(geom.SectorAddr(op.addr), true, op.cl, nil)
	}
}

// propagateNodeDirty handles a dirty tree-node eviction: its parent node
// becomes dirty in turn (cascading toward the root, which absorbs the
// final update on-chip for free).
func (e *Engine) propagateNodeDirty(t *bmt.Tree, mc *cache.Cache, base geom.Addr, nodeAddr geom.Addr, cl stats.Class) {
	if nodeAddr < base {
		return
	}
	ref, ok := t.RefForAddr(nodeAddr - base)
	if !ok {
		return
	}
	parent, ok := t.Parent(ref)
	if !ok || t.IsRoot(parent) {
		return
	}
	slot := ref.Index % uint64(t.Config().Arity())
	na := base + t.NodeAddr(parent) + geom.Addr(slot*bmt.HashBytes/geom.SectorSize*geom.SectorSize)
	e.markNodeDirty(mc, na, cl)
}

// FlushDirtyMetadata writes back all dirty metadata (end-of-run
// accounting so lazy updates are not silently dropped).
func (e *Engine) FlushDirtyMetadata() {
	flush := func(mc *cache.Cache, cl stats.Class) {
		if mc == nil {
			return
		}
		mc.WalkDirty(func(b geom.Addr, d geom.SectorMask) {
			d.Sectors(func(s int) {
				e.ch.Access(b+geom.Addr(s*geom.SectorSize), true, cl, nil)
			})
			mc.CleanSectors(b, d)
		})
	}
	flush(e.ctrCache, stats.Counter)
	flush(e.macCache, stats.MAC)
	flush(e.bmtCache, stats.BMT)
	flush(e.cctrCache, stats.CompactCounter)
	flush(e.cbmtCache, stats.CompactBMT)
}

// debugGuarantee, when non-nil, is invoked on a stale-MAC read (test
// diagnostics for the write-guarantee invariant).
var debugGuarantee func(e *Engine, local geom.Addr, pt []byte)

// SetDebugGuarantee installs a diagnostic hook that fires on stale-MAC
// reads with a description of the sector's verification state.
func SetDebugGuarantee(fn func(info string)) {
	if fn == nil {
		debugGuarantee = nil
		return
	}
	debugGuarantee = func(e *Engine, local geom.Addr, pt []byte) {
		res := e.vcache.VerifySector(pt)
		var detail string
		for off := 0; off < len(pt); off += 16 {
			for k := 0; k < 4; k++ {
				v := uint32(pt[off+k*4]) | uint32(pt[off+k*4+1])<<8 | uint32(pt[off+k*4+2])<<16 | uint32(pt[off+k*4+3])<<24
				hit, pinned := e.vcache.Probe(v)
				detail += fmt.Sprintf(" v=%08x hit=%v pin=%v;", v, hit, pinned)
			}
			detail += " |"
		}
		fn(fmt.Sprintf("stale-MAC read local=%#x verified=%v hits=%d:%s", local, res.Verified, res.Hits, detail))
	}
}
