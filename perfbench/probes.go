package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// The probes re-run one already simulated cell through a path off the
// timed loop. Each must reproduce the cell's statistics; a mismatch is
// a failed output check.

// probeParallel re-runs ref with each memory partition on its own
// goroutine and returns the sequential/parallel Run-time ratio. The
// result must equal the sequential run's exactly.
func probeParallel(ref cellResult, insts uint64) (float64, error) {
	// Partitions run in parallel only when more than one core is allowed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	g, _, err := buildCell(ref.spec, insts, cellOpts{parallel: true})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	st, err := g.RunWithCheckpoints(nil)
	el := time.Since(start)
	if err != nil {
		return 0, err
	}
	if *st != *ref.st {
		return 0, fmt.Errorf("parallel partitions diverge on %s/%s seed %d:\nseq: %+v\npar: %+v",
			ref.spec.bench, ref.spec.scheme, ref.spec.seed, *ref.st, *st)
	}
	return ref.run.Seconds() / el.Seconds(), nil
}

// probeCheckpoint runs ref with a checkpoint every third of its cycles,
// re-encodes the state with WriteSnapshot at each checkpoint (timed, and
// required to reproduce the bytes the run handed its sink), then resumes
// a fresh GPU from the last snapshot. The resumed run must finish with
// the same statistics as the uninterrupted checkpointed run. It returns
// the median encode ns, the restore ns and the last snapshot's size.
func probeCheckpoint(ref cellResult, insts uint64) (encodeNs, restoreNs float64, size int, err error) {
	every := max(ref.st.Cycles/3, 1)
	g, cfg, err := buildCell(ref.spec, insts, cellOpts{checkpointEvery: every})
	if err != nil {
		return 0, 0, 0, err
	}
	var encodes []float64
	var last []byte
	full, err := g.RunWithCheckpoints(func(_ uint64, data []byte) error {
		start := time.Now()
		again, err := g.WriteSnapshot()
		encodes = append(encodes, float64(time.Since(start).Nanoseconds()))
		if err != nil {
			return err
		}
		if !bytes.Equal(again, data) {
			return errors.New("WriteSnapshot is not deterministic: two encodings of one state differ")
		}
		last = append(last[:0], data...)
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if len(encodes) == 0 {
		return 0, 0, 0, fmt.Errorf("checkpoint probe: no snapshot at cadence %d over %d cycles", every, ref.st.Cycles)
	}
	wl, err := workload.GetSeeded(ref.spec.bench, ref.spec.seed)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	resumed, err := gpusim.ResumeSnapshot(cfg, wl, last)
	restoreNs = float64(time.Since(start).Nanoseconds())
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := resumed.RunWithCheckpoints(nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if *st != *full {
		return 0, 0, 0, fmt.Errorf("resumed run diverges on %s/%s seed %d:\nfull:    %+v\nresumed: %+v",
			ref.spec.bench, ref.spec.scheme, ref.spec.seed, *full, *st)
	}
	return median(encodes), restoreNs, len(last), nil
}

// probeTrace captures ref's issued stream to a PLTR-v2 file in dir,
// replays it streaming from disk, and returns replayed records per host
// second of the replay's Run. The capture must reproduce ref, and the
// replay the capture.
func probeTrace(ref cellResult, insts uint64, dir string) (float64, error) {
	sc, err := secmem.ByName(ref.spec.scheme, protected)
	if err != nil {
		return 0, err
	}
	cfg := cellConfig(sc, insts)
	wl, err := workload.GetSeeded(ref.spec.bench, ref.spec.seed)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "probe.pltr")
	defer os.Remove(path)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	captured, err := trace.Capture(cfg, wl, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if *captured != *ref.st {
		return 0, fmt.Errorf("trace capture perturbs %s/%s seed %d:\nrun:     %+v\ncapture: %+v",
			ref.spec.bench, ref.spec.scheme, ref.spec.seed, *ref.st, *captured)
	}
	rp, err := trace.OpenReplay("trace:"+path, path)
	if err != nil {
		return 0, err
	}
	g, err := gpusim.New(cfg, rp)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	st, err := g.RunWithCheckpoints(nil)
	el := time.Since(start)
	if err != nil {
		return 0, err
	}
	// A replay runs under the name "trace:<path>"; nothing else may differ.
	a, b := *captured, *st
	a.Benchmark, b.Benchmark = "", ""
	if a != b {
		return 0, fmt.Errorf("trace replay diverges on %s/%s seed %d:\ncapture: %+v\nreplay:  %+v",
			ref.spec.bench, ref.spec.scheme, ref.spec.seed, *captured, *st)
	}
	return float64(rp.TotalRecords()) / el.Seconds(), nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
