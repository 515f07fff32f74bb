package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// cellResult is one simulated cell with its host timings.
type cellResult struct {
	spec   cellSpec
	st     *stats.Stats
	digest string
	setup  time.Duration // ByName + GetSeeded + gpusim.New
	run    time.Duration // GPU.Run
	total  time.Duration // setup + run + output checks
	err    error
}

// cellConfig builds the simulated GPU of a cell exactly as the
// harness does for a scaled run.
func cellConfig(sc secmem.Config, insts uint64) gpusim.Config {
	cfg := gpusim.ScaledConfig(sc)
	cfg.Sec.ProtectedBytes = protected
	cfg.MaxInstructions = insts
	return cfg
}

// cellOpts varies how a cell is built; the zero value is the timed
// configuration (sequential partitions, no checkpoints, bare workload).
type cellOpts struct {
	parallel        bool
	checkpointEvery uint64
	// wrap, when set, interposes on the workload before the GPU sees it.
	wrap func(gpusim.Workload) (gpusim.Workload, error)
	// stamps, when set, receives the times after ByName and after
	// GetSeeded.
	stamps *[2]time.Time
}

// buildCell makes the cell's workload and GPU through the same public
// calls the harness uses: secmem.ByName, workload.GetSeeded, gpusim.New.
func buildCell(spec cellSpec, insts uint64, o cellOpts) (*gpusim.GPU, gpusim.Config, error) {
	sc, err := secmem.ByName(spec.scheme, protected)
	if o.stamps != nil {
		o.stamps[0] = time.Now()
	}
	if err != nil {
		return nil, gpusim.Config{}, err
	}
	wl, err := workload.GetSeeded(spec.bench, spec.seed)
	if err == nil && o.wrap != nil {
		wl, err = o.wrap(wl)
	}
	if o.stamps != nil {
		o.stamps[1] = time.Now()
	}
	if err != nil {
		return nil, gpusim.Config{}, err
	}
	cfg := cellConfig(sc, insts)
	cfg.ParallelPartitions = o.parallel
	cfg.CheckpointEvery = o.checkpointEvery
	g, err := gpusim.New(cfg, wl)
	if err != nil {
		return nil, gpusim.Config{}, err
	}
	return g, cfg, nil
}

// runCell simulates one cell and checks its output. A nil tracer runs
// it untraced; the timings are taken either way.
func runCell(spec cellSpec, insts uint64, tr *tracer) cellResult {
	res := cellResult{spec: spec}
	var t [6]time.Time
	var mid [2]time.Time
	o := cellOpts{stamps: &mid}
	if tr != nil {
		o.wrap = tr.wrap
	}
	// The previous cell is garbage now. Collecting it starts every cell
	// from the same heap state, so the GC cycles inside a cell, and the
	// process's peak memory, depend on that cell alone.
	runtime.GC()
	t[0] = time.Now()
	g, _, err := buildCell(spec, insts, o)
	t[3] = time.Now()
	t[1], t[2] = mid[0], mid[1]
	res.setup = t[3].Sub(t[0])
	if err != nil {
		res.err = err
		return res
	}
	if tr != nil {
		tr.beforeRun(g, spec)
	}
	res.st, res.err = g.RunWithCheckpoints(nil)
	t[4] = time.Now()
	res.run = t[4].Sub(t[3])
	if res.err == nil {
		res.digest = digest(res.st)
		res.err = checkStats(res.st, spec, insts)
	}
	t[5] = time.Now()
	res.total = t[5].Sub(t[0])
	if tr != nil {
		tr.cellSpans(spec.id, t)
	}
	return res
}

// checkStats is the per-cell output check: the budget was issued, the
// run advanced, a benign run raised no security alarm, and a run with
// no security moved no metadata.
func checkStats(st *stats.Stats, spec cellSpec, insts uint64) error {
	switch {
	case st.Instructions != insts:
		return fmt.Errorf("%s/%s seed %d: issued %d instructions, budget %d", spec.bench, spec.scheme, spec.seed, st.Instructions, insts)
	case st.Cycles == 0:
		return fmt.Errorf("%s/%s seed %d: zero simulated cycles", spec.bench, spec.scheme, spec.seed)
	case st.Sec.TamperDetected != 0 || st.Sec.ReplayDetected != 0 || st.Sec.Verdicts.Total() != 0:
		return fmt.Errorf("%s/%s seed %d: false security alarms: %+v", spec.bench, spec.scheme, spec.seed, st.Sec)
	case spec.scheme == "nosec" && st.Traffic.MetadataBytes() != 0:
		return fmt.Errorf("%s/%s seed %d: nosec moved %d metadata bytes", spec.bench, spec.scheme, spec.seed, st.Traffic.MetadataBytes())
	}
	return nil
}

// digest fingerprints every field of a run's statistics.
func digest(st *stats.Stats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *st)))
	return hex.EncodeToString(sum[:12])
}

// digestStore persists cell digests across runs of the same binary, so
// a cell simulated again — the same seed run twice — must reproduce its
// statistics exactly. The file name carries a hash of the executable:
// a changed simulator starts a fresh store instead of tripping on
// digests a different model produced.
type digestStore struct {
	path  string
	known map[string]string
	dirty bool
}

func openDigestStore(dir string) (*digestStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	s := &digestStore{
		path:  filepath.Join(dir, "digests-"+hex.EncodeToString(sum[:6])+".json"),
		known: map[string]string{},
	}
	data, err := os.ReadFile(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &s.known); err != nil {
		return nil, fmt.Errorf("%s: %w", s.path, err)
	}
	return s, nil
}

// check records a cell's digest, or compares it with the one recorded
// by an earlier run.
func (s *digestStore) check(workload string, r cellResult, insts uint64) error {
	key := fmt.Sprintf("%s|%s|%s|%d|%d", workload, r.spec.bench, r.spec.scheme, r.spec.seed, insts)
	if old, ok := s.known[key]; ok {
		if old != r.digest {
			return fmt.Errorf("cell %s: stats digest %s differs from %s recorded by an earlier run", key, r.digest, old)
		}
		return nil
	}
	s.known[key] = r.digest
	s.dirty = true
	return nil
}

func (s *digestStore) save() error {
	if !s.dirty {
		return nil
	}
	data, err := json.Marshal(s.known)
	if err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}
