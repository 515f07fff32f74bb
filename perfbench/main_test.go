package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedUnit             `json:"end_to_end"`
	PerLayer  []namedUnit             `json:"per_layer"`
}

type namedUnit struct{ Name, Unit string }

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// quickRun runs one round of a workload at a small budget.
func quickRun(t *testing.T, workload string, seed uint64, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{
		workload: workload, seed: seed, trace: trace, out: t.TempDir(),
		insts: 600, layerDur: time.Millisecond, stdout: &out,
	})
	if err != nil {
		t.Fatalf("%s seed %d trace=%v: %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d trace=%v: %d of %d failed\n%s", workload, seed, trace, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(declared, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
}

// TestEveryMetricPrintedWithUnit checks that each workload prints
// exactly the metrics BENCHMARK.json declares, each with its unit: the
// end-to-end ones untraced, the per-layer ones traced.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, tc := range []struct {
			trace bool
			want  []namedUnit
		}{{false, b.EndToEnd}, {true, b.PerLayer}} {
			res, out := quickRun(t, w.name, 1, tc.trace)
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, tc.trace, len(res.Metrics), len(tc.want))
			}
			for _, nu := range tc.want {
				m, ok := res.Metrics[nu.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, tc.trace, nu.Name)
				case m.Unit != nu.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, tc.trace, nu.Name, m.Unit, nu.Unit)
				case !strings.Contains(out, nu.Name):
					t.Errorf("%s trace=%v: report does not print %s", w.name, tc.trace, nu.Name)
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetricNames checks that another seed
// simulates other inputs and reports the same set of metrics.
func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	w, _ := findWorkload("write-mix")
	a, b := w.planRound(1, 0, 0), w.planRound(2, 0, 0)
	ra, rb := runCell(a[0], 600, nil), runCell(b[0], 600, nil)
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if a[0].seed == b[0].seed || ra.digest == rb.digest {
		t.Fatalf("seeds 1 and 2 simulate the same cell: seeds %d/%d, digests %s/%s", a[0].seed, b[0].seed, ra.digest, rb.digest)
	}
	names := func(seed uint64) string {
		res, _ := quickRun(t, w.name, seed, false)
		var out []string
		for k := range res.Metrics {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	if n1, n2 := names(1), names(2); n1 != n2 {
		t.Fatalf("metric names differ between seeds:\n%s\n%s", n1, n2)
	}
}

// TestRoundsNeverRepeatACell checks that every cell of a run gets a
// fresh seed, so no cell is a repeat of another.
func TestRoundsNeverRepeatACell(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]bool{}
		for round := 0; round < 50; round++ {
			for _, c := range w.planRound(7, round, 0) {
				key := fmt.Sprintf("%s/%s/%d", c.bench, c.scheme, c.seed)
				if seen[key] {
					t.Fatalf("%s round %d repeats cell %s", w.name, round, key)
				}
				seen[key] = true
			}
		}
	}
}

// TestIQROverMedianMatchesPython pins the quartiles to Python's
// statistics.quantiles(values, n=4), the spread the benchmark's bounds
// are judged by.
func TestIQROverMedianMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		// quantiles([1..10]) = [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5 / 5.5},
		// quantiles([1, 2, 4]) = [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 3.0 / 2},
		// quantiles([1, 3]) = [0.5, 2.0, 3.5]
		{[]float64{1, 3}, 3.0 / 2},
	} {
		if got := iqrOverMedian(tc.xs); got != tc.want {
			t.Errorf("iqrOverMedian(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
