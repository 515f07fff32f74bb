package main

// protected is the per-partition protected range every cell simulates,
// the same value plutussim, benchsmoke and the harness default to.
const protected = 128 << 20

// workloadDef is one named workload: the cells of a round are every
// benchmark under every scheme, and each round draws fresh seeds.
type workloadDef struct {
	name    string
	benches []string
	schemes []string
	// insts is the per-cell warp-instruction budget, sized so one round
	// takes a few host seconds on a 2-core box.
	insts uint64
	// layerScheme configures the standalone secmem engine the isolated
	// layer drivers of the traced run exercise.
	layerScheme string
}

// workloads must stay in step with BENCHMARK.json; the package tests
// check that they do. Each uses the secure datapath differently, so an
// optimisation of one path shows on one workload and not on another.
var workloads = []workloadDef{
	{
		// Irregular, read-dominated graph kernels that miss the metadata
		// caches: the secure read path and value verification carry the
		// cost.
		name:        "graph-read",
		benches:     []string{"bfs", "pagerank", "spmv"},
		schemes:     []string{"pssm", "plutus"},
		insts:       4000,
		layerScheme: "plutus",
	},
	{
		// Write-heavy kernels through Writeback: counter and
		// compact-counter increments and overflow, MACs, trees, mgx
		// derived versions and ssm shares. A read-path gain that costs
		// writes shows here.
		name:        "write-mix",
		benches:     []string{"histo", "backprop"},
		schemes:     []string{"pssm", "plutus", "mgx", "ssm"},
		insts:       40000,
		layerScheme: "plutus",
	},
	{
		// Regular kernels with no security: the secure datapath is
		// bypassed, so the event loop, gpusim and workload generation do
		// the work. A secmem optimisation should not move it.
		name:        "regular-nosec",
		benches:     []string{"stream", "hotspot", "sgemm", "kmeans"},
		schemes:     []string{"nosec"},
		insts:       60000,
		layerScheme: "nosec",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cellSpec names one simulation cell.
type cellSpec struct {
	id     int
	round  int
	bench  string
	scheme string
	seed   uint64
}

// splitmix64 is the seed mixer that derives cell seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// planRound lists the cells of one round. All schemes of a benchmark
// share the round's seed for that benchmark, so plutus and pssm compare
// on identical inputs; every (round, benchmark) pair gets a fresh
// nonzero seed, so no two rounds simulate the same cell.
func (w workloadDef) planRound(runSeed uint64, round, firstID int) []cellSpec {
	var out []cellSpec
	for bi, b := range w.benches {
		seed := splitmix64(splitmix64(runSeed)^uint64(round)<<16^uint64(bi)) | 1
		for _, s := range w.schemes {
			out = append(out, cellSpec{id: firstID + len(out), round: round, bench: b, scheme: s, seed: seed})
		}
	}
	return out
}
