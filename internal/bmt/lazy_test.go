package bmt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// eagerSetUnitHash is the reference update: record the leaf, then rehash
// every node on its path up to the root at once. It writes the tree's
// stores directly and never marks anything dirty, so a tree driven only
// by it holds exactly the state eager propagation produces.
func eagerSetUnitHash(t *Tree, u, h uint64) {
	t.unitHashes.put(u, h)
	idx := u / t.arity
	for l := range t.counts {
		nh := t.computeNode(l, idx)
		if l == len(t.counts)-1 {
			t.root = nh
			break
		}
		t.nodeHashes[l].put(idx, nh)
		idx /= t.arity
	}
}

func snapshotBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	if err := tr.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), enc.Data()...)
}

// TestLazyMatchesEager drives random update sequences through the lazy
// tree and the eager reference, interleaved with Root, Snapshot and
// Restore, and requires equal roots and byte-identical snapshots. Unit
// counts leave the last node of some level partially filled, and one
// tree is a bare root.
func TestLazyMatchesEager(t *testing.T) {
	for _, c := range []Config{cfg16(1000), cfg16(16 * 16 * 3), cfg16(10), cfg4(1001), cfg4(4 * 4 * 4 * 4)} {
		c := c
		t.Run(fmt.Sprintf("arity%d/units%d", c.Arity(), c.Units), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.Units)*31 + int64(c.Arity())))
			lazy, ref := MustNew(c, 5), MustNew(c, 5)
			for step := 0; step < 3000; step++ {
				var u uint64
				switch rng.Intn(4) {
				case 0:
					u = c.Units - 1 // the partial last node
				case 1:
					u = uint64(rng.Intn(8)) // a hot corner, many repeats
				default:
					u = uint64(rng.Int63n(int64(c.Units)))
				}
				h := rng.Uint64()
				lazy.SetUnitHash(u, h)
				eagerSetUnitHash(ref, u, h)
				switch k := rng.Intn(40); {
				case k < 3:
					if got, want := lazy.Root(), ref.Root(); got != want {
						t.Fatalf("step %d: lazy root %#x, eager %#x", step, got, want)
					}
				case k < 5:
					if got, want := snapshotBytes(t, lazy), snapshotBytes(t, ref); !bytes.Equal(got, want) {
						t.Fatalf("step %d: lazy snapshot differs from eager", step)
					}
				case k == 5:
					// Restore over pending updates must drop them: the
					// restored tree is the snapshotted one, nothing more.
					snap := snapshotBytes(t, ref)
					lazy.SetUnitHash(0, rng.Uint64())
					if err := lazy.Restore(checkpoint.NewDecoder(snap)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := snapshotBytes(t, lazy), snapshotBytes(t, ref); !bytes.Equal(got, want) {
				t.Fatal("final lazy snapshot differs from eager")
			}
			if lazy.Root() != ref.Root() {
				t.Fatal("final roots differ")
			}
		})
	}
}
