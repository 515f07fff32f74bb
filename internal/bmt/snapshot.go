package bmt

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// Snapshot flushes pending interior updates, then encodes the tree's
// materialized hashes — non-default unit hashes, per-level non-default
// node hashes (both in ascending index order), and the root. Geometry
// and defaults are derived from Config on the restoring side; unit count
// and height are encoded as a cross-check.
func (t *Tree) Snapshot(enc *checkpoint.Encoder) error {
	t.flush()
	enc.U64(t.cfg.Units)
	enc.U32(uint32(len(t.counts)))
	snapshotHashes(enc, &t.unitHashes)
	for l := range t.nodeHashes {
		snapshotHashes(enc, &t.nodeHashes[l])
	}
	enc.U64(t.root)
	return nil
}

// Restore decodes state written by Snapshot into a tree built from the
// same configuration.
func (t *Tree) Restore(dec *checkpoint.Decoder) error {
	units, height := dec.U64(), dec.U32()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("bmt: %w", err)
	}
	if units != t.cfg.Units || int(height) != len(t.counts) {
		return fmt.Errorf("bmt: snapshot geometry (units %d, height %d) vs tree (units %d, height %d): %w",
			units, height, t.cfg.Units, len(t.counts), checkpoint.ErrMismatch)
	}
	unitHashes, err := restoreHashes(dec, t.cfg.Units)
	if err != nil {
		return err
	}
	nodeHashes := make([]hashes, len(t.counts))
	for l := range nodeHashes {
		if nodeHashes[l], err = restoreHashes(dec, t.counts[l]); err != nil {
			return err
		}
	}
	root := dec.U64()
	if err := dec.Err(); err != nil {
		return fmt.Errorf("bmt: %w", err)
	}
	t.unitHashes = unitHashes
	t.nodeHashes = nodeHashes
	t.root = root
	for l := range t.dirty {
		t.dirty[l].Reset()
	}
	return nil
}

// snapshotHashes encodes the recorded entries of hs: their count, then
// (index, hash) pairs in ascending index order.
func snapshotHashes(enc *checkpoint.Encoder, hs *hashes) {
	enc.U64(uint64(hs.set.Count()))
	hs.set.ForEach(func(i uint64) {
		enc.U64(i)
		enc.U64(hs.h.Get(i))
	})
}

// restoreHashes decodes what snapshotHashes wrote, rejecting indices at
// or beyond limit (the layer's size).
func restoreHashes(dec *checkpoint.Decoder, limit uint64) (hashes, error) {
	var hs hashes
	n := dec.U64()
	for k := uint64(0); k < n && dec.Err() == nil; k++ {
		i, h := dec.U64(), dec.U64()
		if i >= limit && dec.Err() == nil {
			return hashes{}, fmt.Errorf("bmt: hash index %d beyond layer size %d: %w", i, limit, checkpoint.ErrCorrupt)
		}
		hs.put(i, h)
	}
	return hs, nil
}
