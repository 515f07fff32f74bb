package secmem

import (
	"math/rand"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// checkUnitHashMemos requires every memoized unit hash to equal a
// from-scratch hash of the unit's current counter state.
func checkUnitHashMemos(t *testing.T, e *Engine, step int) {
	t.Helper()
	e.ctrMemo.valid.ForEach(func(u uint64) {
		if got, want := e.ctrMemo.h.Get(u), e.hashCounterUnit(u, false); got != want {
			t.Fatalf("step %d: memoized counter unit %d hash %#x, recomputed %#x", step, u, got, want)
		}
	})
	if e.compact == nil {
		return
	}
	e.cctrMemo.valid.ForEach(func(u uint64) {
		if got, want := e.cctrMemo.h.Get(u), e.hashCompactUnit(u, false); got != want {
			t.Fatalf("step %d: memoized compact unit %d hash %#x, recomputed %#x", step, u, got, want)
		}
	})
}

// TestUnitHashMemoMatchesRecompute drives every counter-based registry
// scheme through randomized writes and reads on a small hot window, so
// minors overflow into major bumps, compact counters saturate and
// adaptive blocks disable, mixed with counter replays and restores of
// an earlier snapshot into the live engine. After every operation each
// memoized unit hash must equal the hash recomputed from scratch.
func TestUnitHashMemoMatchesRecompute(t *testing.T) {
	for _, name := range Names() {
		cfg, err := ByName(name, protected)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.HasDRAMCounters() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			r := conformanceRig(t, name)
			e := r.e
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			// A compact block spanning two counter units (unit A from
			// base, unit B from base+128), a hammered sector that
			// overflows its minor, and a far sector in another block —
			// all above the rig's mgx stream, so mgx writes use stored
			// counters. Saturating sectors of unit B memoizes its hash
			// before the block disables and changes it.
			const base = 256
			pick := func() geom.Addr {
				switch k := rng.Intn(100); {
				case k < 25:
					return (base + 5) * geom.SectorSize
				case k < 60:
					return geom.Addr(base+rng.Intn(32)) * geom.SectorSize
				case k < 85:
					return geom.Addr(base+128+rng.Intn(16)) * geom.SectorSize
				case k < 95:
					return geom.Addr(base+32+rng.Intn(32)) * geom.SectorSize
				default:
					return (base + 700) * geom.SectorSize
				}
			}
			var saved []byte
			var overflowed, disabled, replayed, restored bool
			for step := 0; step < 1500; step++ {
				a := pick()
				switch k := rng.Intn(100); {
				case k < 70:
					r.write(t, a, sector(uint32(step), uint32(a)))
				case k < 94:
					r.read(t, a)
				case k < 96:
					e.ReplayCounter(a)
					replayed = true
				case k < 98:
					saved = snapshotEngine(t, e)
				default:
					if saved == nil {
						continue
					}
					dec := checkpoint.NewDecoder(saved)
					if err := e.Restore(dec); err != nil {
						t.Fatalf("step %d: Restore: %v", step, err)
					}
					restored = true
				}
				checkUnitHashMemos(t, e, step)
				if e.split.Major(e.split.GroupOf(base)) > 0 {
					overflowed = true
				}
				if e.compact != nil && e.compact.Disabled(base) {
					disabled = true
				}
			}
			if !overflowed || !replayed || !restored {
				t.Fatalf("run missed a case: overflow %v, replay %v, restore %v", overflowed, replayed, restored)
			}
			if e.compact != nil && r.st.Sec.CompactOverflow == 0 {
				t.Fatal("compact run never read a saturated compact counter")
			}
			if e.compact != nil && e.compact.Kind() == counters.Compact3BitAdaptive && !disabled {
				t.Fatal("adaptive run never disabled a compact block")
			}
		})
	}
}
