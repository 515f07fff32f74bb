// Command benchsmoke is the CI benchmark smoke-check: it sweeps a small
// benchmark × scheme matrix at a tiny instruction budget in both
// sequential and parallel-partition mode, verifies the two modes produce
// bit-identical statistics, and writes a machine-readable summary
// (wall-clock per mode, speedup, per-run stats) to a JSON file that the
// CI pipeline uploads as an artifact.
//
// The summary also carries a checkpoint micro-benchmark: one run is
// snapshotted mid-flight, resumed from its last snapshot, and required
// to reproduce the checkpointed reference exactly; the snapshot's
// encoded size and the save/restore latencies are recorded so the cost
// of the checkpoint subsystem is tracked run over run.
//
// The summary additionally reports two committed-trajectory metrics:
// sim_cycles_per_sec (simulated cycles retired per wall-clock second of
// the sequential sweep) and event_loop_allocs_per_op (heap allocations
// per schedule+dispatch pair of the event engine in steady state,
// measured testing.AllocsPerRun-style). With -baseline the current run
// is gated against a committed BENCH_*.json: the throughput may not
// regress by more than -maxregress and the event loop may not allocate
// more than the baseline does.
//
// Exit status is nonzero if any run diverges between modes, if the
// resumed run diverges from its reference, if a -baseline gate fails,
// or — when -minspeedup is set — if the parallel sweep fails to beat
// sequential by that factor.
//
// Usage:
//
//	benchsmoke -insts 1500 -out BENCH_ci.json
//	benchsmoke -benchmarks bfs,sgemm -schemes pssm,plutus -minspeedup 1.15
//	benchsmoke -baseline BENCH_0006.json -maxregress 0.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/prof"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/tamper"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

const protected = 128 << 20

// run is one (benchmark, scheme) comparison in the report.
type run struct {
	Benchmark    string      `json:"benchmark"`
	Scheme       string      `json:"scheme"`
	Match        bool        `json:"match"`
	SequentialNs int64       `json:"sequential_ns"`
	ParallelNs   int64       `json:"parallel_ns"`
	Stats        stats.Stats `json:"stats"`
}

// checkpointReport records the snapshot subsystem's cost on one run:
// encoded size, atomic-write and restore latency, and whether the run
// resumed from the last snapshot reproduced the checkpointed reference
// bit for bit (the replay guarantee).
type checkpointReport struct {
	Benchmark     string `json:"benchmark"`
	Scheme        string `json:"scheme"`
	EveryCycles   uint64 `json:"every_cycles"`
	Snapshots     int    `json:"snapshots"`
	SnapshotBytes int    `json:"snapshot_bytes"` // last snapshot's encoded size
	SaveNs        int64  `json:"save_ns"`        // mean atomic-write latency per snapshot
	RestoreNs     int64  `json:"restore_ns"`     // ResumeSnapshot latency from the last snapshot
	ResumeMatch   bool   `json:"resume_match"`
}

// tamperReport records the fault-injection subsystem's cost and outcome
// on one attacked run: plan expansion latency, how many ops landed, what
// the scheme's verdict counters said, and whether sequential and
// parallel partition execution replayed the attack bit-identically.
type tamperReport struct {
	Benchmark        string `json:"benchmark"`
	Scheme           string `json:"scheme"`
	PlanFingerprint  string `json:"plan_fingerprint"`
	Ops              int    `json:"ops"`
	ExpandNs         int64  `json:"expand_ns"`
	Injected         uint64 `json:"injected"`
	TaintedReads     uint64 `json:"tainted_reads"`
	Detected         uint64 `json:"detected"` // MAC + tree verdicts
	SilentCorruption uint64 `json:"silent_corruption"`
	SeqParMatch      bool   `json:"seq_par_match"`
}

// traceReport records the trace pipeline's cost on one captured run:
// trace size on disk, capture overhead versus the plain sweep, the
// streaming reader's resident-record high-water mark, replay
// throughput, and whether the replayed run reproduced the capture
// run's statistics exactly (the replay guarantee).
type traceReport struct {
	Benchmark           string  `json:"benchmark"`
	Scheme              string  `json:"scheme"`
	TraceBytes          int64   `json:"trace_bytes"`
	Records             uint64  `json:"records"`
	CaptureNs           int64   `json:"capture_ns"`
	ReplayNs            int64   `json:"replay_ns"`
	ReplayRecordsPerSec float64 `json:"replay_records_per_sec"`
	MaxResidentRecords  int     `json:"max_resident_records"`
	ReplayMatch         bool    `json:"replay_match"`
}

// report is the BENCH_ci.json schema.
type report struct {
	// Note is free-text provenance for committed baselines: what the
	// file pins and the trajectory it belongs to (-note flag).
	Note            string  `json:"note,omitempty"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	MaxInstructions uint64  `json:"max_instructions"`
	Runs            []run   `json:"runs"`
	SequentialNs    int64   `json:"total_sequential_ns"`
	ParallelNs      int64   `json:"total_parallel_ns"`
	Speedup         float64 `json:"speedup"`
	AllMatch        bool    `json:"all_match"`
	// SimCyclesPerSec is the sweep's simulation throughput: simulated
	// cycles retired per wall-clock second across the sequential runs.
	// This is the committed-trajectory headline number the -baseline
	// gate protects.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	// EventLoopAllocsPerOp is the event engine's steady-state heap
	// allocation count per schedule+dispatch pair. The calendar-queue
	// scheduler is pooled end to end, so the committed value is 0 and
	// any positive reading is a regression.
	EventLoopAllocsPerOp float64           `json:"event_loop_allocs_per_op"`
	Checkpoint           *checkpointReport `json:"checkpoint,omitempty"`
	Tamper               *tamperReport     `json:"tamper,omitempty"`
	Trace                *traceReport      `json:"trace,omitempty"`
	// ClusterLoadgen embeds a `plutusctl loadgen` summary (-loadgen
	// flag): request latency percentiles and throughput of the
	// distributed sweep fabric, carried verbatim so the committed
	// baseline records the cluster serving path alongside simulation
	// throughput.
	ClusterLoadgen json.RawMessage `json:"cluster_loadgen,omitempty"`
}

// measureEventLoopAllocs measures steady-state allocations per
// schedule+dispatch pair on the event engine, the way
// testing.AllocsPerRun does: warm the engine until its ring buckets and
// overflow heap have grown to working size, then average over repeated
// batches. The delta mix crosses the scheduler's near/far boundary so
// both the ring and the overflow heap stay on the measured path.
func measureEventLoopAllocs() float64 {
	const ops = 8192
	eng := &sim.Engine{}
	rng := uint64(1)
	// Deterministic warm-up: one event in every calendar-ring bucket
	// plus a far-horizon event, drained before counting, so the event
	// arena and the overflow heap have reached their steady-state size.
	for s := sim.Cycle(0); s < 4096; s++ {
		eng.ScheduleCall(s, sim.Call{H: noop})
	}
	eng.ScheduleCall(4096+1000, sim.Call{H: noop})
	for eng.Step() {
	}
	batch := func() {
		for i := 0; i < ops; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			eng.ScheduleCall(sim.Cycle(rng%6000), sim.Call{H: noop, Arg: rng})
			eng.Step()
		}
	}
	return testing.AllocsPerRun(10, batch) / ops
}

// noop is the measured event handler, the shape of a typed
// continuation.
func noop(uint64) {}

// checkBaseline gates the current report against a committed baseline:
// simulation throughput may regress at most maxRegress (fractional),
// and the event loop may not allocate more than the baseline records.
func checkBaseline(path string, cur *report, maxRegress float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.SimCyclesPerSec > 0 {
		floor := base.SimCyclesPerSec * (1 - maxRegress)
		if cur.SimCyclesPerSec < floor {
			return fmt.Errorf("sim throughput regressed: %.0f cycles/s vs baseline %.0f (floor %.0f at %.0f%% tolerance)",
				cur.SimCyclesPerSec, base.SimCyclesPerSec, floor, maxRegress*100)
		}
	}
	if cur.EventLoopAllocsPerOp > base.EventLoopAllocsPerOp {
		return fmt.Errorf("event loop allocates: %.2f allocs/op vs baseline %.2f",
			cur.EventLoopAllocsPerOp, base.EventLoopAllocsPerOp)
	}
	return nil
}

// measureCheckpoint runs bench/sc three times at the gpusim layer:
// uncheckpointed (to size a cadence that yields a few snapshots),
// checkpointed with every snapshot written through the same atomic-write
// path the harness uses, and resumed from the last snapshot. The
// resumed run must reproduce the checkpointed reference exactly.
func measureCheckpoint(bench string, sc secmem.Config, insts uint64) (*checkpointReport, error) {
	mkCfg := func(every uint64) gpusim.Config {
		cfg := gpusim.ScaledConfig(sc)
		cfg.Sec.ProtectedBytes = protected
		cfg.MaxInstructions = insts
		cfg.CheckpointEvery = every
		return cfg
	}
	runOnce := func(cfg gpusim.Config, sink gpusim.CheckpointSink) (*stats.Stats, error) {
		wl, err := workload.Get(bench)
		if err != nil {
			return nil, err
		}
		g, err := gpusim.New(cfg, wl)
		if err != nil {
			return nil, err
		}
		return g.RunWithCheckpoints(sink)
	}

	// Cadence: a third of the uncheckpointed run, so the checkpointed
	// run takes a few snapshots at any instruction budget.
	plain, err := runOnce(mkCfg(0), nil)
	if err != nil {
		return nil, err
	}
	every := plain.Cycles / 3
	if every == 0 {
		every = 1
	}

	dir, err := os.MkdirTemp("", "benchsmoke-ckpt-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")
	rep := &checkpointReport{Benchmark: bench, Scheme: sc.Scheme, EveryCycles: every}
	var last []byte
	var saveTotal time.Duration
	cfg := mkCfg(every)
	ref, err := runOnce(cfg, func(cycle uint64, data []byte) error {
		start := time.Now()
		if werr := checkpoint.WriteFileAtomic(path, data); werr != nil {
			return werr
		}
		saveTotal += time.Since(start)
		rep.Snapshots++
		last = append(last[:0], data...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Snapshots == 0 {
		return nil, fmt.Errorf("checkpointed %s/%s run took no snapshots at cadence %d", bench, sc.Scheme, every)
	}
	rep.SnapshotBytes = len(last)
	rep.SaveNs = saveTotal.Nanoseconds() / int64(rep.Snapshots)

	wl, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := gpusim.ResumeSnapshot(cfg, wl, last)
	if err != nil {
		return nil, err
	}
	rep.RestoreNs = time.Since(start).Nanoseconds()
	resumed, err := g.RunWithCheckpoints(nil)
	if err != nil {
		return nil, err
	}
	rep.ResumeMatch = *resumed == *ref
	if !rep.ResumeMatch {
		fmt.Fprintf(os.Stderr, "benchsmoke: RESUME DIVERGENCE %s/%s:\nref:     %+v\nresumed: %+v\n",
			bench, sc.Scheme, *ref, *resumed)
	}
	return rep, nil
}

// measureTraceReplay captures bench/sc into a PLTR-v2 trace on disk,
// replays the trace through a fresh simulation, and requires the replay
// to reproduce the capture run's statistics exactly. The streaming
// reader's resident-record high-water mark is reported so the
// bounded-memory property is tracked run over run, and records/sec of
// the replay is the trajectory throughput number for the trace path.
func measureTraceReplay(bench string, sc secmem.Config, insts uint64) (*traceReport, error) {
	cfg := gpusim.ScaledConfig(sc)
	cfg.Sec.ProtectedBytes = protected
	cfg.MaxInstructions = insts

	wl, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "benchsmoke-trace-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.pltr")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ref, err := trace.Capture(cfg, wl, f)
	captureNs := time.Since(start).Nanoseconds()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	rp, err := trace.OpenReplay("trace:"+path, path)
	if err != nil {
		return nil, err
	}
	g, err := gpusim.New(cfg, rp)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	st := g.Run()
	replayNs := time.Since(start).Nanoseconds()

	rep := &traceReport{
		Benchmark:          bench,
		Scheme:             sc.Scheme,
		TraceBytes:         fi.Size(),
		Records:            rp.TotalRecords(),
		CaptureNs:          captureNs,
		ReplayNs:           replayNs,
		MaxResidentRecords: rp.MaxResidentRecords(),
	}
	if replayNs > 0 {
		rep.ReplayRecordsPerSec = float64(rep.Records) / (float64(replayNs) / 1e9)
	}
	// Replay runs under a different benchmark name ("trace:<path>"); that
	// is the only field allowed to differ from the capture run.
	a, b := *ref, *st
	a.Benchmark, b.Benchmark = "", ""
	rep.ReplayMatch = a == b
	if !rep.ReplayMatch {
		fmt.Fprintf(os.Stderr, "benchsmoke: TRACE REPLAY DIVERGENCE %s/%s:\ncapture: %+v\nreplay:  %+v\n",
			bench, sc.Scheme, *ref, *st)
	}
	return rep, nil
}

// smokePlan is the attack schedule of the tamper micro-benchmark:
// ciphertext flips and a counter rollback over the low protected range,
// early enough that the short smoke runs revisit the targets.
const smokePlan = `seed 6
at cycle=1000 attack=sectorflip range=0x0:0x100000 count=12
at cycle=1500 attack=bitflip range=0x0:0x100000 count=4
at cycle=2000 attack=ctr-rollback range=0x0:0x100000 count=4
`

// measureTamper runs one attacked bench/sc simulation in sequential and
// parallel partition mode and compares the outcomes: the attack must
// land identically in both (ops apply at epoch boundaries), and the
// scheme must never record a silent corruption.
func measureTamper(bench string, sc secmem.Config, insts uint64) (*tamperReport, error) {
	plan, err := tamper.Parse(smokePlan)
	if err != nil {
		return nil, err
	}
	runOnce := func(parallel bool) (*stats.Stats, *tamperReport, error) {
		// A fresh workload instance per run: workloads are stateful.
		wl, err := workload.Get(bench)
		if err != nil {
			return nil, nil, err
		}
		cfg := gpusim.ScaledConfig(sc)
		cfg.Sec.ProtectedBytes = protected
		cfg.MaxInstructions = insts
		cfg.ParallelPartitions = parallel
		il, err := geom.NewInterleaver(cfg.Partitions)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		ops, err := plan.Expand(il, protected*uint64(cfg.Partitions))
		if err != nil {
			return nil, nil, err
		}
		expandNs := time.Since(start).Nanoseconds()
		g, err := gpusim.New(cfg, wl)
		if err != nil {
			return nil, nil, err
		}
		g.ArmTamper(ops)
		st := g.Run()
		return st, &tamperReport{
			Benchmark: bench, Scheme: sc.Scheme,
			PlanFingerprint: plan.Fingerprint(),
			Ops:             len(ops),
			ExpandNs:        expandNs,
			Injected:        st.Sec.TamperInjected,
			TaintedReads:    st.Sec.TaintedReads,
			Detected: st.Sec.Verdicts.Count(stats.VerdictDetectedByMAC) +
				st.Sec.Verdicts.Count(stats.VerdictDetectedByBMT),
			SilentCorruption: st.Sec.Verdicts.Count(stats.VerdictSilentCorruption),
		}, nil
	}
	seqSt, rep, err := runOnce(false)
	if err != nil {
		return nil, err
	}
	parSt, _, err := runOnce(true)
	if err != nil {
		return nil, err
	}
	rep.SeqParMatch = *seqSt == *parSt
	if !rep.SeqParMatch {
		fmt.Fprintf(os.Stderr, "benchsmoke: TAMPER DIVERGENCE %s/%s:\nseq: %+v\npar: %+v\n",
			bench, sc.Scheme, *seqSt, *parSt)
	}
	if rep.Injected != uint64(rep.Ops) {
		return nil, fmt.Errorf("tamper %s/%s: %d of %d ops landed", bench, sc.Scheme, rep.Injected, rep.Ops)
	}
	return rep, nil
}

func main() {
	var (
		insts    = flag.Uint64("insts", 1500, "warp-instruction budget per run")
		out      = flag.String("out", "BENCH_ci.json", "summary output path")
		benches  = flag.String("benchmarks", "bfs,hotspot,sgemm,pagerank", "comma-separated benchmarks")
		schemes  = flag.String("schemes", "nosec,pssm,plutus", "comma-separated schemes")
		minSpeed = flag.Float64("minspeedup", 0, "fail unless parallel beats sequential by this factor (0 = report only)")
		baseline = flag.String("baseline", "", "committed BENCH_*.json to gate against (empty = no gate)")
		note     = flag.String("note", "", "provenance note embedded in the summary (for committed baselines)")
		maxRegr  = flag.Float64("maxregress", 0.10, "with -baseline: max fractional sim-throughput regression before failing")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a pprof allocation profile of the sweep to this file")
		loadgen  = flag.String("loadgen", "", "merge this `plutusctl loadgen` summary JSON into the report as cluster_loadgen")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		}
	}()

	var scs []secmem.Config
	for _, name := range strings.Split(*schemes, ",") {
		sc, err := secmem.ByName(name, protected)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsmoke:", err)
			os.Exit(1)
		}
		scs = append(scs, sc)
	}
	benchList := strings.Split(*benches, ",")

	// Parallelism 1 isolates the variable under test: the only difference
	// between the two sweeps is partition sharding inside each simulation.
	mkRunner := func(parallel bool) *harness.Runner {
		return harness.NewRunner(harness.Config{
			ProtectedBytes:     protected,
			MaxInstructions:    *insts,
			Benchmarks:         benchList,
			Parallelism:        1,
			ParallelPartitions: parallel,
		})
	}
	seqR, parR := mkRunner(false), mkRunner(true)

	rep := report{Note: *note, GOMAXPROCS: runtime.GOMAXPROCS(0), MaxInstructions: *insts, AllMatch: true}
	sweep := func(r *harness.Runner, bench string, sc secmem.Config) (*stats.Stats, int64) {
		start := time.Now()
		st, err := r.Run(bench, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsmoke:", err)
			os.Exit(1)
		}
		return st, time.Since(start).Nanoseconds()
	}
	for _, bench := range benchList {
		for _, sc := range scs {
			seq, seqNs := sweep(seqR, bench, sc)
			par, parNs := sweep(parR, bench, sc)
			match := *seq == *par
			rep.Runs = append(rep.Runs, run{
				Benchmark: bench, Scheme: sc.Scheme, Match: match,
				SequentialNs: seqNs, ParallelNs: parNs, Stats: *seq,
			})
			rep.SequentialNs += seqNs
			rep.ParallelNs += parNs
			if !match {
				rep.AllMatch = false
				fmt.Fprintf(os.Stderr, "benchsmoke: DIVERGENCE %s/%s:\nseq: %+v\npar: %+v\n",
					bench, sc.Scheme, *seq, *par)
			}
		}
	}
	if rep.ParallelNs > 0 {
		rep.Speedup = float64(rep.SequentialNs) / float64(rep.ParallelNs)
	}
	var simCycles uint64
	for _, r := range rep.Runs {
		simCycles += r.Stats.Cycles
	}
	if rep.SequentialNs > 0 {
		rep.SimCyclesPerSec = float64(simCycles) / (float64(rep.SequentialNs) / 1e9)
	}
	rep.EventLoopAllocsPerOp = measureEventLoopAllocs()

	// Checkpoint micro-benchmark on one representative run (the first
	// benchmark under the last scheme — plutus in the default matrix).
	ck, err := measureCheckpoint(benchList[0], scs[len(scs)-1], *insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke: checkpoint:", err)
		os.Exit(1)
	}
	rep.Checkpoint = ck
	if !ck.ResumeMatch {
		rep.AllMatch = false
	}

	// Tamper micro-benchmark on the same representative run: the attack
	// must replay identically across execution modes and never corrupt
	// silently.
	tk, err := measureTamper(benchList[0], scs[len(scs)-1], *insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke: tamper:", err)
		os.Exit(1)
	}
	rep.Tamper = tk
	if !tk.SeqParMatch || tk.SilentCorruption != 0 {
		rep.AllMatch = false
	}

	// Trace micro-benchmark on the same representative run: capture the
	// issued stream, replay it streaming from disk, and require the
	// replay to reproduce the capture run exactly.
	tr, err := measureTraceReplay(benchList[0], scs[len(scs)-1], *insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke: trace:", err)
		os.Exit(1)
	}
	rep.Trace = tr
	if !tr.ReplayMatch {
		rep.AllMatch = false
	}

	if *loadgen != "" {
		lg, err := os.ReadFile(*loadgen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsmoke: loadgen:", err)
			os.Exit(1)
		}
		if !json.Valid(lg) {
			fmt.Fprintf(os.Stderr, "benchsmoke: loadgen: %s is not valid JSON\n", *loadgen)
			os.Exit(1)
		}
		rep.ClusterLoadgen = json.RawMessage(lg)
	}

	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
	fmt.Printf("benchsmoke: %d runs, seq %.2fs, par %.2fs, speedup %.2fx, match=%v -> %s\n",
		len(rep.Runs), float64(rep.SequentialNs)/1e9, float64(rep.ParallelNs)/1e9,
		rep.Speedup, rep.AllMatch, *out)
	fmt.Printf("benchsmoke: perf: %.0f sim cycles/s sequential, %.2f event-loop allocs/op\n",
		rep.SimCyclesPerSec, rep.EventLoopAllocsPerOp)
	fmt.Printf("benchsmoke: checkpoint %s/%s: %d snapshots of %d B every %d cycles, save %s, restore %s, resume match=%v\n",
		ck.Benchmark, ck.Scheme, ck.Snapshots, ck.SnapshotBytes, ck.EveryCycles,
		time.Duration(ck.SaveNs), time.Duration(ck.RestoreNs), ck.ResumeMatch)
	fmt.Printf("benchsmoke: tamper %s/%s: plan %s, %d ops (expand %s), tainted reads %d, detected %d, silent %d, seq/par match=%v\n",
		tk.Benchmark, tk.Scheme, tk.PlanFingerprint, tk.Ops, time.Duration(tk.ExpandNs),
		tk.TaintedReads, tk.Detected, tk.SilentCorruption, tk.SeqParMatch)
	fmt.Printf("benchsmoke: trace %s/%s: %d records in %d B, capture %s, replay %s (%.0f records/s, %d resident max), replay match=%v\n",
		tr.Benchmark, tr.Scheme, tr.Records, tr.TraceBytes, time.Duration(tr.CaptureNs),
		time.Duration(tr.ReplayNs), tr.ReplayRecordsPerSec, tr.MaxResidentRecords, tr.ReplayMatch)

	if !rep.AllMatch {
		os.Exit(1)
	}
	if *minSpeed > 0 && rep.Speedup < *minSpeed {
		fmt.Fprintf(os.Stderr, "benchsmoke: speedup %.2fx below required %.2fx\n", rep.Speedup, *minSpeed)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := checkBaseline(*baseline, &rep, *maxRegr); err != nil {
			fmt.Fprintf(os.Stderr, "benchsmoke: baseline gate (%s): %v\n", *baseline, err)
			os.Exit(1)
		}
		fmt.Printf("benchsmoke: baseline gate passed against %s\n", *baseline)
	}
}
