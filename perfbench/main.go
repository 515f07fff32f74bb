// Command perfbench is the repository's benchmark. It runs one named
// workload of simulation cells (benchmark × scheme × seed) in a closed
// loop on one goroutine for a fixed host time, checks every cell's
// output, and prints the end-to-end metrics. With -trace 1 it runs the
// same cells again under a tracer, drives each layer in isolation on
// the workload's own issued stream, and prints the per-layer metrics
// instead. The last line of standard output is always one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload graph-read -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "run seed; every cell's input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds the timed loop keeps starting rounds")
	traceFlag := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run; 0: the end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, results and the digest store")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	o.layerDur = 250 * time.Millisecond
	o.stdout = os.Stdout

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// insts overrides the workload's per-cell budget when nonzero.
	insts uint64
	// layerDur is the minimum host time of each isolated layer driver.
	layerDur time.Duration
	stdout   io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// bench carries one run's state: its workload, the digest store and
// the failure tally.
type bench struct {
	o         options
	w         workloadDef
	insts     uint64
	store     *digestStore
	attempted int
	failed    int
}

// fail counts one failed output check.
func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

// probe counts one probe as attempted, and as failed if err is set.
func (b *bench) probe(name string, err error) bool {
	b.attempted++
	if err != nil {
		b.fail(fmt.Errorf("%s: %w", name, err))
		return false
	}
	return true
}

// cell counts one simulated cell, failing it on an error, a failed
// check, or a digest that differs from an earlier run's.
func (b *bench) cell(r cellResult) cellResult {
	b.attempted++
	if r.err == nil {
		r.err = b.store.check(b.w.name, r, b.insts)
	}
	if r.err != nil {
		b.fail(r.err)
	}
	return r
}

// run performs one benchmark run. Failed output checks are counted in
// the result; an error means the run could not start or could not store
// its output.
func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 0 {
		return nil, errors.New("-seconds must not be negative")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	store, err := openDigestStore(o.out)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, insts: w.insts, store: store}
	if o.insts != 0 {
		b.insts = o.insts
	}
	// The harness runs every simulation at this GC target (see
	// harness.NewRunner), one simulation per core (Parallelism =
	// GOMAXPROCS). The benchmark measures the same: its one simulation
	// gets one core and shares it with its own GC, which also keeps load
	// on the host's other core out of the timings.
	debug.SetGCPercent(600)
	runtime.GOMAXPROCS(1)

	var tp *tracedPass
	if o.trace {
		if tp, err = b.startTraced(); err != nil {
			return nil, err
		}
	}
	loop, err := b.timedLoop(tp)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		tp.stop()
	}
	ref, haveRef := loop.firstOK()
	var speedup float64
	if haveRef {
		s, err := probeParallel(ref, b.insts)
		if b.probe("parallel partitions", err) {
			speedup = s
		}
	}
	var metrics map[string]metric
	if o.trace {
		if metrics, err = tp.finish(ref, haveRef); err != nil {
			return nil, err
		}
		metrics["sim.cluster.par_speedup"] = metric{speedup, "x"}
	} else {
		metrics = loop.endToEnd(b.insts)
		metrics["ok_frac"] = metric{float64(b.attempted-b.failed) / float64(b.attempted), "frac"}
	}
	if err := store.save(); err != nil {
		return nil, err
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	b.report(loop, res)
	return res, b.writeResult(loop, res)
}

// loopResult is the untraced closed loop: every cell, grouped by round.
type loopResult struct {
	rounds        [][]cellResult
	mallocs       uint64 // heap allocations over the loop
	allocBytes    uint64 // heap bytes allocated over the loop
	peakRSSMB     float64
	wall          time.Duration
	roundInstsPer []float64 // per round: instructions per host second of Run
}

func (l *loopResult) cells() []cellResult {
	var out []cellResult
	for _, r := range l.rounds {
		out = append(out, r...)
	}
	return out
}

func (l *loopResult) firstOK() (cellResult, bool) {
	for _, c := range l.cells() {
		if c.err == nil && c.st != nil {
			return c, true
		}
	}
	return cellResult{}, false
}

// timedLoop runs whole rounds, so every round simulates the same mix.
// It starts another round only while the last one would still fit in
// the time left, so a run ends close to -seconds. With a traced pass,
// each cell is followed by its traced twin.
func (b *bench) timedLoop(tp *tracedPass) (*loopResult, error) {
	l := &loopResult{}
	// Warm-up: round 0's first cell once, untimed, so timing starts with
	// the heap grown. The digest store makes round 0 repeat it exactly.
	b.cell(runCell(b.w.planRound(b.o.seed, 0, 0)[0], b.insts, nil))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	var last time.Duration
	for round := 0; round == 0 || (time.Since(start)+last).Seconds() <= b.o.seconds; round++ {
		roundStart := time.Now()
		specs := b.w.planRound(b.o.seed, round, n)
		rr := make([]cellResult, 0, len(specs))
		for _, s := range specs {
			r := b.cell(runCell(s, b.insts, nil))
			rr = append(rr, r)
			if tp != nil {
				tp.twin(r)
			}
		}
		n += len(specs)
		l.rounds = append(l.rounds, rr)
		last = time.Since(roundStart)
	}
	l.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	var err error
	l.mallocs = after.Mallocs - before.Mallocs
	l.allocBytes = after.TotalAlloc - before.TotalAlloc
	l.peakRSSMB, err = peakRSSMB()
	for _, rr := range l.rounds {
		var insts uint64
		var runS float64
		for _, c := range rr {
			if c.st != nil {
				insts += c.st.Instructions
			}
			runS += c.run.Seconds()
		}
		l.roundInstsPer = append(l.roundInstsPer, float64(insts)/runS)
	}
	return l, err
}

// endToEnd derives the end-to-end metrics from the untraced loop.
// Every round simulates the same mix of cell types; each timing is the
// median over rounds per cell type, so one disturbed round moves no
// metric, and the types then weigh equally.
func (l *loopResult) endToEnd(insts uint64) map[string]metric {
	var total uint64
	for _, c := range l.cells() {
		if c.st != nil {
			total += c.st.Instructions
		}
	}
	seconds := func(f func(cellResult) time.Duration) float64 {
		return l.typeMedianMean(func(c cellResult) float64 { return f(c).Seconds() })
	}
	runS := seconds(func(c cellResult) time.Duration { return c.run })
	return map[string]metric{
		"sim_insts_per_s":      {float64(insts) / runS, "inst/s"},
		"cell_s_p50":           {seconds(func(c cellResult) time.Duration { return c.total }), "s"},
		"setup_s":              {seconds(func(c cellResult) time.Duration { return c.setup }), "s"},
		"allocs_per_inst":      {float64(l.mallocs) / float64(max(total, 1)), "allocs/inst"},
		"alloc_bytes_per_inst": {float64(l.allocBytes) / float64(max(total, 1)), "B/inst"},
		"peak_rss_mb":          {l.peakRSSMB, "MB"},
	}
}

// typeMedianMean takes each cell type's median of f over the rounds and
// returns the mean over cell types.
func (l *loopResult) typeMedianMean(f func(cellResult) float64) float64 {
	types := len(l.rounds[0])
	var sum float64
	for i := 0; i < types; i++ {
		xs := make([]float64, len(l.rounds))
		for r, rr := range l.rounds {
			xs[r] = f(rr[i])
		}
		sum += median(xs)
	}
	return sum / float64(types)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
