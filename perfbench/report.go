package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/plutus-gpu/plutus/internal/stats"
)

// provenance is recorded with every result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Insts      uint64  `json:"insts_per_cell"`
	Rounds     int     `json:"rounds"`
	Cells      int     `json:"cells"`
	Seconds    float64 `json:"loop_seconds"`
	Spread     float64 `json:"sim_insts_per_s_iqr_over_median"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
}

func (b *bench) provenance(loop *loopResult) provenance {
	return provenance{
		Workload:   b.w.name,
		Seed:       b.o.seed,
		Traced:     b.o.trace,
		Insts:      b.insts,
		Rounds:     len(loop.rounds),
		Cells:      len(loop.cells()),
		Seconds:    loop.wall.Seconds(),
		Spread:     iqrOverMedian(loop.roundInstsPer),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// iqrOverMedian is the distance between the first and third quartile
// over the median, with quartiles as Python's statistics.quantiles
// (exclusive method) computes them.
func iqrOverMedian(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of the 3 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// report prints the run's provenance, metrics and accuracy line to the
// run's standard output, ahead of the result line.
func (b *bench) report(loop *loopResult, res *result) {
	out := b.o.stdout
	p := b.provenance(loop)
	fmt.Fprintf(out, "perfbench %s seed %d traced=%v: %d rounds, %d cells of %d instructions in %.2fs; sim_insts_per_s spread (IQR/median over rounds) %.4f\n",
		p.Workload, p.Seed, p.Traced, p.Rounds, p.Cells, p.Insts, p.Seconds, p.Spread)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d (nproc for the parallel-partition probe), %s; one goroutine, sequential partitions\n",
		p.CPU, p.NumCPU, p.GOMAXPROCS, p.GoVersion)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-40s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "  %-40s %16.6g frac (failed %d of %d attempted)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintln(out, accuracyLine(loop))
}

// accuracyLine compares plutus with pssm on the cells that ran both on
// the same inputs, beside the paper's averages.
func accuracyLine(loop *loopResult) string {
	var ipc, meta []float64
	for _, rr := range loop.rounds {
		by := map[string]*stats.Stats{}
		for _, c := range rr {
			if c.err == nil && c.st != nil {
				by[c.spec.bench+"/"+c.spec.scheme] = c.st
			}
		}
		for _, c := range rr {
			if c.spec.scheme != "plutus" {
				continue
			}
			pl, ps := by[c.spec.bench+"/plutus"], by[c.spec.bench+"/pssm"]
			if pl == nil || ps == nil || ps.IPC() == 0 || ps.Traffic.MetadataBytes() == 0 {
				continue
			}
			ipc = append(ipc, pl.IPC()/ps.IPC())
			meta = append(meta, float64(pl.Traffic.MetadataBytes())/float64(ps.Traffic.MetadataBytes()))
		}
	}
	const caveat = "The model is not validated against hardware; caches start empty in every cell."
	if len(ipc) == 0 {
		return "accuracy: no plutus/pssm pairs in this workload. " + caveat
	}
	return fmt.Sprintf("accuracy: plutus vs pssm over %d same-input pairs: IPC %+.2f%% (paper +16.86%%), "+
		"metadata traffic %+.2f%% (paper -48.14%%), geometric means. %s",
		len(ipc), (stats.GeoMean(ipc)-1)*100, (stats.GeoMean(meta)-1)*100, caveat)
}

// writeResult stores the result with its provenance and per-round
// throughput beside the spans.
func (b *bench) writeResult(loop *loopResult, res *result) error {
	type cellRecord struct {
		Round   int     `json:"round"`
		Bench   string  `json:"bench"`
		Scheme  string  `json:"scheme"`
		Seed    uint64  `json:"seed"`
		Digest  string  `json:"digest"`
		SetupS  float64 `json:"setup_s"`
		RunS    float64 `json:"run_s"`
		TotalS  float64 `json:"total_s"`
		SimIPC  float64 `json:"sim_ipc"`
		Cycles  uint64  `json:"sim_cycles"`
		Failure string  `json:"failure,omitempty"`
	}
	var cells []cellRecord
	for _, c := range loop.cells() {
		r := cellRecord{Round: c.spec.round, Bench: c.spec.bench, Scheme: c.spec.scheme, Seed: c.spec.seed,
			Digest: c.digest, SetupS: c.setup.Seconds(), RunS: c.run.Seconds(), TotalS: c.total.Seconds()}
		if c.st != nil {
			r.SimIPC, r.Cycles = c.st.IPC(), c.st.Cycles
		}
		if c.err != nil {
			r.Failure = c.err.Error()
		}
		cells = append(cells, r)
	}
	doc := struct {
		Provenance    provenance   `json:"provenance"`
		RoundInstsPer []float64    `json:"round_sim_insts_per_s"`
		Accuracy      string       `json:"accuracy"`
		Result        *result      `json:"result"`
		Cells         []cellRecord `json:"cells"`
	}{b.provenance(loop), loop.roundInstsPer, accuracyLine(loop), res, cells}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if b.o.trace {
		trace = 1
	}
	path := filepath.Join(b.o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", b.w.name, b.o.seed, trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
