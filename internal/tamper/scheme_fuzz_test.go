package tamper

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// FuzzSchemeOracle drives the differential oracle over (workload seed,
// registered scheme, plan seed): the scheme's capability-filtered
// all-kinds plan runs against the seeded workload, and the oracle's
// invariants must hold for every input:
//
//   - every planned op is injected (no silent engine-level no-op);
//   - reads of untainted sectors return the shadow contents (runOracle
//     checks this as they happen);
//   - integrity schemes record zero SilentCorruption, and nosec records
//     nothing but SilentCorruption, one per tainted read.
//
// The seed corpus holds one entry per registered scheme, so a plain
// `go test` covers the whole registry.
func FuzzSchemeOracle(f *testing.F) {
	names := secmem.Names()
	for i := range names {
		f.Add(uint64(7+i), uint8(i), uint64(100+i))
	}
	f.Fuzz(func(t *testing.T, workSeed uint64, scheme uint8, planSeed uint64) {
		name := names[int(scheme)%len(names)]
		rig := newOracleRig(t, name)
		ops := allKindsPlan(t, planSeed, rig.sec.Config())
		runOracle(t, rig, workSeed, ops)
		sec := &rig.st.Sec
		if got, want := sec.TamperInjected, uint64(len(ops)); got != want {
			t.Fatalf("%s: injected %d of %d planned ops", name, got, want)
		}
		silent := sec.Verdicts.Count(stats.VerdictSilentCorruption)
		if name == "nosec" {
			if silent != sec.TaintedReads || sec.Verdicts.Total() != silent {
				t.Fatalf("nosec: %d silent corruptions for %d tainted reads (verdicts %v)",
					silent, sec.TaintedReads, sec.Verdicts)
			}
			return
		}
		if silent != 0 {
			t.Fatalf("%s: %d silent corruptions (tainted reads %d, verdicts %v)",
				name, silent, sec.TaintedReads, sec.Verdicts)
		}
	})
}
