package secmem

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// Snapshot encodes the engine's complete mutable state: the functional
// DRAM image (ciphertexts and MACs), the stale-MAC / tamper / region
// write-tracking sets, the split and compact counter stores, both
// Merkle trees, every metadata cache, and the value cache. Dense stores
// are walked in ascending index order (and the one remaining map in
// sorted key order) so identical state is identical bytes.
//
// The engine must be quiescent — no live request records (reads,
// writebacks, metadata fills) and no fetches parked on MSHR exhaustion —
// because in-flight state lives in the pools and the event queue, which
// are not serialized; snapshots are taken at drained epoch boundaries.
// Scratch state (overflowPlain, hashScratch, the run buffers) is dead
// between drained epochs and is deliberately not captured.
func (e *Engine) Snapshot(enc *checkpoint.Encoder) error {
	if err := e.quiescenceError(); err != nil {
		return err
	}
	enc.U64(uint64(e.mem.Count()))
	e.mem.ForEach(func(i uint64, rec []byte) {
		enc.U64(i * geom.SectorSize)
		enc.Bytes(rec)
	})
	enc.U64(uint64(e.macsSet.Count()))
	e.macsSet.ForEach(func(i uint64) {
		enc.U64(i)
		enc.U64(e.macs.Get(i))
	})
	snapshotBitmap(enc, &e.macStale)
	snapshotBitmap(enc, &e.taintData)
	e.taintData.ForEach(func(i uint64) {
		auth, _ := e.authentic.Lookup(i)
		enc.Bytes(auth)
	})
	snapshotBitmap(enc, &e.taintMeta)
	snapshotBitmap(enc, &e.ctrReplayed)
	snapshotBitmap(enc, &e.cctrReplayed)
	snapshotAddrBoolMap(enc, e.bmtTampered)
	snapshotBitmap(enc, &e.regionWritten)
	switch e.cfg.Verifier {
	case VerifierNone:
		return nil
	case VerifierShares:
		// The ssm scheme's only mutable state beyond the share image is
		// the per-sector write version.
		snapshotBitmap(enc, &e.ssmWritten)
		e.ssmWritten.ForEach(func(i uint64) {
			enc.U64(e.ssmVer.Get(i))
		})
		return nil
	}
	if e.cfg.Versions == VersionsDerived {
		snapshotBitmap(enc, &e.mgxDerived)
		snapshotBitmap(enc, &e.mgxIrregular)
		e.mgxDerived.ForEach(func(i uint64) {
			enc.U64(e.mgxVer.Get(i))
		})
	}
	parts := []interface {
		Snapshot(*checkpoint.Encoder) error
	}{e.split, e.tree, e.ctrCache, e.macCache, e.bmtCache}
	if e.compact != nil {
		parts = append(parts, e.compact, e.ctree, e.cctrCache, e.cbmtCache)
	}
	if e.vcache != nil {
		parts = append(parts, e.vcache)
	}
	for _, p := range parts {
		if err := p.Snapshot(enc); err != nil {
			return err
		}
	}
	return nil
}

// quiescenceError reports in-flight state: live request records or
// fetches parked on MSHR exhaustion.
func (e *Engine) quiescenceError() error {
	if n, m, w := e.reqs.Live(), e.metaOps.Live(), e.mshrWait.Len(); n+m+w != 0 {
		return fmt.Errorf("secmem: %d pending requests, %d metadata operations, %d MSHR waiters: %w",
			n, m, w, checkpoint.ErrNotQuiescent)
	}
	return nil
}

// Restore decodes state written by Snapshot into an engine freshly
// built from the same configuration. Runtime wiring — the DRAM channel,
// stats sink, InitData hook, and the split store's OnOverflow callback —
// is left exactly as New installed it.
func (e *Engine) Restore(dec *checkpoint.Decoder) error {
	if err := e.quiescenceError(); err != nil {
		return fmt.Errorf("secmem: restore into a busy engine: %w", err)
	}
	// The restored counters replace whatever the memos were hashed from.
	e.ctrMemo.valid.Reset()
	e.cctrMemo.valid.Reset()
	var mem dense.Sectors
	nm := dec.U64()
	for i := uint64(0); i < nm && dec.Err() == nil; i++ {
		a := geom.Addr(dec.U64())
		ct := dec.Bytes()
		if len(ct) != geom.SectorSize && dec.Err() == nil {
			return fmt.Errorf("secmem: sector %#x has %d bytes, want %d: %w",
				uint64(a), len(ct), geom.SectorSize, checkpoint.ErrCorrupt)
		}
		if dec.Err() == nil {
			copy(mem.Put(uint64(a)/geom.SectorSize), ct)
		}
	}
	var macs dense.U64
	var macsSet dense.Bitmap
	nmac := dec.U64()
	for i := uint64(0); i < nmac && dec.Err() == nil; i++ {
		k := dec.U64()
		macsSet.Set(k)
		macs.Set(k, dec.U64())
	}
	macStale := restoreBitmap(dec)
	taintData := restoreBitmap(dec)
	var authentic dense.Sectors
	badAuth := false
	taintData.ForEach(func(i uint64) {
		auth := dec.Bytes()
		badAuth = badAuth || len(auth) != geom.SectorSize
		copy(authentic.Put(i), auth)
	})
	if badAuth && dec.Err() == nil {
		return fmt.Errorf("secmem: authentic sector copy of wrong length: %w", checkpoint.ErrCorrupt)
	}
	taintMeta := restoreBitmap(dec)
	ctrReplayed := restoreBitmap(dec)
	cctrReplayed := restoreBitmap(dec)
	bmtTampered := restoreAddrBoolMap(dec)
	regionWritten := restoreBitmap(dec)
	if err := dec.Err(); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	e.mem = mem
	e.macsSet = macsSet
	e.macs = macs
	e.macStale = macStale
	e.taintData = taintData
	e.authentic = authentic
	e.taintMeta = taintMeta
	e.ctrReplayed = ctrReplayed
	e.cctrReplayed = cctrReplayed
	e.bmtTampered = bmtTampered
	e.regionWritten = regionWritten
	switch e.cfg.Verifier {
	case VerifierNone:
		return nil
	case VerifierShares:
		ssmWritten := restoreBitmap(dec)
		var ssmVer dense.U64
		ssmWritten.ForEach(func(i uint64) {
			ssmVer.Set(i, dec.U64())
		})
		if err := dec.Err(); err != nil {
			return fmt.Errorf("secmem: %w", err)
		}
		e.ssmWritten = ssmWritten
		e.ssmVer = ssmVer
		return nil
	}
	if e.cfg.Versions == VersionsDerived {
		mgxDerived := restoreBitmap(dec)
		mgxIrregular := restoreBitmap(dec)
		var mgxVer dense.U64
		mgxDerived.ForEach(func(i uint64) {
			mgxVer.Set(i, dec.U64())
		})
		if err := dec.Err(); err != nil {
			return fmt.Errorf("secmem: %w", err)
		}
		e.mgxDerived = mgxDerived
		e.mgxIrregular = mgxIrregular
		e.mgxVer = mgxVer
	}
	parts := []interface {
		Restore(*checkpoint.Decoder) error
	}{e.split, e.tree, e.ctrCache, e.macCache, e.bmtCache}
	if e.compact != nil {
		parts = append(parts, e.compact, e.ctree, e.cctrCache, e.cbmtCache)
	}
	if e.vcache != nil {
		parts = append(parts, e.vcache)
	}
	for _, p := range parts {
		if err := p.Restore(dec); err != nil {
			return err
		}
	}
	return nil
}

// snapshotBitmap encodes a dense index set in the same wire layout the
// old bool-valued maps used (count, then ascending key/true pairs), so a
// restored engine re-encodes to the very same bytes.
func snapshotBitmap(enc *checkpoint.Encoder, b *dense.Bitmap) {
	enc.U64(uint64(b.Count()))
	b.ForEach(func(k uint64) {
		enc.U64(k)
		enc.Bool(true)
	})
}

func restoreBitmap(dec *checkpoint.Decoder) dense.Bitmap {
	var b dense.Bitmap
	n := dec.U64()
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		k := dec.U64()
		if dec.Bool() {
			b.Set(k)
		}
	}
	return b
}

// snapshotAddrBoolMap encodes an address-keyed taint map with full
// fidelity in sorted key order.
func snapshotAddrBoolMap(enc *checkpoint.Encoder, m map[geom.Addr]bool) {
	enc.U64(uint64(len(m)))
	for _, k := range checkpoint.SortedKeys(m) {
		enc.U64(uint64(k))
		enc.Bool(m[k])
	}
}

func restoreAddrBoolMap(dec *checkpoint.Decoder) map[geom.Addr]bool {
	n := dec.U64()
	m := make(map[geom.Addr]bool, n)
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		k := geom.Addr(dec.U64())
		m[k] = dec.Bool()
	}
	return m
}
