package secmem

// The mgx frontier scheme (PAPERS.md: "MGX: Near-Zero Overhead Memory
// Protection for Data-Intensive Accelerators"): instead of fetching
// encryption counters from DRAM, version numbers for sectors on regular
// write streams are derived deterministically from the access pattern
// the workload itself declares. The controller keeps the derived
// versions on-chip (they are a pure function of the stream cursor, so
// real hardware regenerates rather than stores them); no counter fetch,
// no tree walk, no freshness traffic. Sectors written outside any
// declared stream fall back to the stored split-counter + BMT path —
// the fallback is the unmodified Plutus-baseline machinery.
//
// The scheme needs one bit of application knowledge: whether an address
// sits on a regular stream. That is the secmem↔workload contract below
// (StreamCursorSource), wired through Engine.StreamHint by the
// embedding GPU exactly like the InitData hook.

import "github.com/plutus-gpu/plutus/internal/geom"

// StreamCursorSource is the workload side of the mgx contract: a
// workload that can map a global address onto one of its regular write
// streams returns the stream's cursor and ok=true; addresses off every
// stream return ok=false. The interface is satisfied structurally
// (workload does not import secmem).
type StreamCursorSource interface {
	StreamCursor(addr geom.Addr) (stream uint64, ok bool)
}

// counterOf returns sector i's effective encryption counter: the
// on-chip derived version for mgx-derived sectors, the split-counter
// value for everything else. Every functional-datapath counter use goes
// through this helper so the two version domains can never mix.
//
//simlint:hotpath
func (e *Engine) counterOf(i uint64) uint64 {
	if e.cfg.Versions == VersionsDerived && e.mgxDerived.Get(i) {
		return e.mgxVer.Get(i)
	}
	return e.split.Value(i)
}

// mgxClassify decides — sticky, on first touch — whether sector i rides
// a derived version stream. A sector once classified never migrates:
// versions must be monotone within one domain, and real hardware could
// not re-derive a version history that started in the other domain.
// With no stream hint wired, every sector is irregular and mgx degrades
// to the plain stored-counter scheme.
func (e *Engine) mgxClassify(i uint64, local geom.Addr) bool {
	if e.mgxDerived.Get(i) {
		return true
	}
	if e.mgxIrregular.Get(i) {
		return false
	}
	if e.StreamHint != nil {
		if _, ok := e.StreamHint(local); ok {
			e.mgxDerived.Set(i)
			return true
		}
	}
	e.mgxIrregular.Set(i)
	return false
}

// mgxBumpVersion advances a derived sector's on-chip version (the mgx
// analogue of bumpCounter; derived sectors never touch the split store,
// so stored-counter overflow handling does not apply to them).
func (e *Engine) mgxBumpVersion(i uint64) {
	e.mgxVer.Set(i, e.mgxVer.Get(i)+1)
}

// SkewDerivedVersion desynchronizes sector local's derived version from
// its stored ciphertext — the seeded-mutation probe for the oracle's CI
// gate: a version-derivation bug must surface as a MAC mismatch on the
// next read, never as silent corruption. Returns false when the sector
// is not mgx-derived (nothing to skew).
func (e *Engine) SkewDerivedVersion(local geom.Addr) bool {
	local = geom.SectorAddr(local)
	i := e.sectorIdx(local)
	if e.cfg.Versions != VersionsDerived || !e.mgxDerived.Get(i) {
		return false
	}
	e.materialize(local) // pin the ciphertext under the current version
	e.mgxVer.Set(i, e.mgxVer.Get(i)+1)
	e.taintData.Set(i) // decryption under the skewed version is garbage
	e.st.Sec.TamperInjected++
	return true
}
