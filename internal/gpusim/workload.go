package gpusim

import "github.com/plutus-gpu/plutus/internal/geom"

// InstKind classifies a warp instruction.
type InstKind int

const (
	// Compute occupies the warp for Inst.Cycles without memory activity.
	Compute InstKind = iota
	// Load reads memory; the warp stalls until every coalesced sector
	// responds.
	Load
	// Store writes memory; it retires immediately after issue (GPU
	// stores are fire-and-forget into the L2 write-back hierarchy).
	Store
)

// Inst is one warp instruction as produced by a workload.
type Inst struct {
	Kind InstKind
	// Cycles is the duration of a Compute instruction (min 1).
	Cycles int
	// Addrs are the per-thread byte addresses of a Load/Store; the
	// simulator coalesces them into 32 B sector requests. The slice may
	// alias a buffer the workload reuses: it is valid until the same
	// warp's next Next call, so consumers that keep it must copy it.
	Addrs []geom.Addr
}

// Workload generates the instruction streams and data contents of one
// benchmark. Implementations live in the workload package; the interface
// is defined here so the simulator has no dependency on them.
//
// Concurrency contract: Next is only ever called from the SM shard and
// may keep per-warp state. MemValue and StoreValue must be pure: safe
// for concurrent calls and dependent only on their arguments. With
// Config.ParallelPartitions every partition shard lazily materializes
// its memory image through MemValue, and computes the bytes of each
// store it receives through StoreValue, from its own goroutine; a store
// message carries only the warp and the sector. All implementations in
// this repo derive both from a pure hash (valmodel.Model).
//
// Aliasing contract: Inst.Addrs returned by Next(w) stays valid until
// the next Next(w), which lets a workload reuse one address buffer per
// warp. The simulator consumes it before that warp fetches again.
type Workload interface {
	// Name identifies the benchmark in reports.
	Name() string
	// Warps is the total warp count (distributed round-robin over SMs).
	Warps() int
	// Next produces warp w's next instruction; ok=false retires the warp.
	Next(w int) (inst Inst, ok bool)
	// MemValue gives the initial 32-bit plaintext at global address addr
	// (addr is 4-byte aligned). This defines the device memory image and
	// hence the value-locality profile the paper's Fig. 9 studies.
	// It must be pure (see the interface comment).
	MemValue(addr geom.Addr) uint32
	// StoreValue gives the value warp w stores at addr (4-byte aligned).
	// It must be pure (see the interface comment): the same arguments
	// give the same value whenever, and on whichever shard, it is called.
	StoreValue(w int, addr geom.Addr) uint32
}
