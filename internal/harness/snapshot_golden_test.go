package harness

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// snapshotDigestGolden pins the SHA-256 of every section of every
// gpusim checkpoint snapshot of a fixed set of cells. Snapshot bytes
// carry the full functional state (DRAM image, counters, both trees'
// materialized hashes, caches), so a refactor of how that state is
// maintained must leave this file unchanged. Digests are per section so
// a change that only renames configuration fields — which moves the
// "meta" section's fingerprint and nothing else — is told apart from
// one that moves simulator state.
const snapshotDigestGolden = "testdata/snapshot_digests.golden"

// snapshotDigests runs every pinned cell with checkpoints at a fixed
// cadence and returns one line per snapshot section: cell, ordinal,
// cycle, section name and digest. Every registered scheme is pinned;
// the fullSchemes run on three benchmarks, the rest on histo only, to
// bound the runtime.
func snapshotDigests(t *testing.T) string {
	t.Helper()
	const (
		insts     = 5000
		protected = 128 << 20
		every     = 400
	)
	fullSchemes := map[string]bool{"pssm": true, "plutus": true, "plutus-C3A": true, "plutus-G32": true, "mgx": true}
	var sb strings.Builder
	for _, bench := range []string{"bfs", "histo", "backprop"} {
		for _, scheme := range secmem.Names() {
			if !fullSchemes[scheme] && bench != "histo" {
				continue
			}
			sc, err := secmem.ByName(scheme, protected)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := workload.Get(bench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := gpusim.ScaledConfig(sc)
			cfg.MaxInstructions = insts
			cfg.CheckpointEvery = every
			g, err := gpusim.New(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if _, err := g.RunWithCheckpoints(func(cycle uint64, data []byte) error {
				f, err := checkpoint.Decode(data)
				if err != nil {
					return err
				}
				for _, sec := range f.Sections() {
					fmt.Fprintf(&sb, "%s %s %d %d %s %x\n", bench, scheme, n, cycle, sec.Name, sha256.Sum256(sec.Payload))
				}
				n++
				return nil
			}); err != nil {
				t.Fatalf("%s/%s: %v", bench, scheme, err)
			}
			if n == 0 {
				t.Fatalf("%s/%s: no checkpoint at cadence %d", bench, scheme, every)
			}
		}
	}
	return sb.String()
}

// TestSnapshotDigestGolden compares the snapshot digests with the
// committed golden; run with -update to rewrite it.
func TestSnapshotDigestGolden(t *testing.T) {
	got := snapshotDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(snapshotDigestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotDigestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(snapshotDigestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("snapshot digests drifted from %s:\n--- got ---\n%s--- want ---\n%s", snapshotDigestGolden, got, want)
	}
}
