package plutus_test

import (
	"runtime"
	"testing"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// TestFullRunAllocationBudget is the dynamic complement of the
// //simlint:hotpath escape proofs: escape analysis does not see a slice
// that append regrows, or a pool that grows on demand, so it cannot show
// that a run stops allocating once its structures have grown. This test
// counts every heap allocation of whole cells — gpusim.New plus Run,
// sequential partitions — per simulated instruction.
//
// What remains is construction, the lazily paged stores (DRAM image,
// counters, metadata) that grow with the footprint a run touches, and
// the logarithmic growth of pools, event queues and MSHR files. The
// budgets are the measured counts (go1.24, linux/amd64; they repeat to
// within 0.3 %) plus a margin of about 30 % for other Go versions:
// bfs/plutus 1.20, histo/mgx 0.157 and stream/nosec 0.070 allocations
// per instruction.
func TestFullRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cells := []struct {
		bench, scheme string
		insts         uint64
		budget        float64 // allocations per instruction
	}{
		{"bfs", "plutus", 4000, 1.6},
		{"histo", "mgx", 20000, 0.2},
		{"stream", "nosec", 20000, 0.09},
	}
	for _, c := range cells {
		t.Run(c.bench+"/"+c.scheme, func(t *testing.T) {
			sc, err := secmem.ByName(c.scheme, protected)
			if err != nil {
				t.Fatal(err)
			}
			cfg := gpusim.ScaledConfig(sc)
			cfg.Sec.ProtectedBytes = protected
			cfg.MaxInstructions = c.insts
			wl, err := workload.Get(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := gpusim.New(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			st := g.Run()
			runtime.ReadMemStats(&after)
			if st.Instructions == 0 {
				t.Fatal("the run issued no instructions")
			}
			perInst := float64(after.Mallocs-before.Mallocs) / float64(st.Instructions)
			t.Logf("%d allocations over %d instructions: %.4f per instruction (budget %.3g)",
				after.Mallocs-before.Mallocs, st.Instructions, perInst, c.budget)
			if perInst > c.budget {
				t.Errorf("%.4f allocations per instruction, budget %.3g", perInst, c.budget)
			}
		})
	}
}
