package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"

	"github.com/plutus-gpu/plutus/internal/stats"
)

// tracedPass is the traced run's second pass: each cell of the loop is
// followed at once by its traced twin, so the machine's drift over the
// run cancels out of the tracing overhead. A CPU profile covers both.
type tracedPass struct {
	b                  *bench
	tr                 *tracer
	prof               bytes.Buffer
	cpu0, cpu1         cpuTimes
	untracedS, tracedS float64
	cells              []cellResult // the traced twins
}

func (b *bench) startTraced() (*tracedPass, error) {
	p := &tracedPass{b: b, tr: newTracer(), cpu0: readCPU()}
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, err
	}
	return p, nil
}

// twin re-runs c under the tracer. The digest store fails the twin
// unless it reproduces c's digest.
func (p *tracedPass) twin(c cellResult) {
	r := p.b.cell(runCell(c.spec, p.b.insts, p.tr))
	p.untracedS += c.total.Seconds()
	p.tracedS += r.total.Seconds()
	p.cells = append(p.cells, r)
}

// stop ends the profiled window; the probes that follow are not in it.
func (p *tracedPass) stop() {
	pprof.StopCPUProfile()
	p.cpu1 = readCPU()
}

// finish runs the isolated layer drivers and the checkpoint and trace
// probes, and returns the per-layer metrics.
func (p *tracedPass) finish(ref cellResult, haveRef bool) (map[string]metric, error) {
	b, tr, cells := p.b, p.tr, p.cells
	m := map[string]metric{}
	m["perfbench.trace_overhead_frac"] = metric{p.tracedS/p.untracedS - 1, "frac"}
	if busy := p.cpu1.total - p.cpu1.idle - (p.cpu0.total - p.cpu0.idle); busy > 0 {
		m["host.gc_cpu_frac"] = metric{(p.cpu1.gc - p.cpu0.gc) / busy, "frac"}
	} else {
		m["host.gc_cpu_frac"] = metric{0, "frac"}
	}
	shares, err := cpuShares(p.prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, k := range shareBuckets {
		m["host.share."+k] = metric{shares[k], "frac"}
	}

	// In-situ spans and counts.
	var runNs, insts, cycles float64
	for _, c := range cells {
		if c.st != nil {
			insts += float64(c.st.Instructions)
			cycles += float64(c.st.Cycles)
		}
	}
	for _, ns := range tr.spanNs("gpusim.Run") {
		runNs += ns
	}
	m["gpusim.new_ns"] = metric{median(tr.spanNs("gpusim.New")), "ns"}
	m["gpusim.host_ns_per_inst"] = metric{runNs / insts, "ns/inst"}
	m["gpusim.sim_cycles_per_s"] = metric{cycles / (runNs / 1e9), "cycles/s"}
	m["gpusim.sim_ipc"] = metric{insts / cycles, "inst/cycle"}
	m["workload.next_ns"] = metric{tr.leafNs("workload.Next"), "ns"}
	m["workload.memvalue_ns"] = metric{tr.leafNs("workload.MemValue"), "ns"}
	for k, v := range modelMetrics(cells) {
		m[k] = v
	}
	if err := tr.write(filepath.Join(b.o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.o.seed))); err != nil {
		return nil, err
	}

	if !haveRef {
		// Every cell failed, and each failure is counted; the probes
		// have no reference to reproduce.
		return m, nil
	}
	lm, err := runLayerDrivers(tr.capture, b.w, b.o.layerDur)
	if b.probe("layer drivers", err) {
		for k, v := range lm {
			m[k] = v
		}
	}

	enc, restore, size, err := probeCheckpoint(ref, b.insts)
	if b.probe("checkpoint resume", err) {
		m["checkpoint.encode_ns"] = metric{enc, "ns"}
		m["checkpoint.restore_ns"] = metric{restore, "ns"}
		m["checkpoint.snapshot_bytes"] = metric{float64(size), "B"}
	}
	rps, err := probeTrace(ref, b.insts, b.o.out)
	if b.probe("trace replay", err) {
		m["trace.replay_records_per_s"] = metric{rps, "records/s"}
	}
	return m, nil
}

// cpuTimes are the runtime's cumulative CPU-time classes, in seconds.
type cpuTimes struct{ gc, idle, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return cpuTimes{gc: val(0), idle: val(1), total: val(2)}
}

// modelMetrics are the modelled components' counts, summed over the
// cells. They are deterministic for a given seed.
func modelMetrics(cells []cellResult) map[string]metric {
	var sum stats.Stats
	for _, c := range cells {
		if c.st != nil {
			sum.Merge(c.st)
		}
	}
	m := map[string]metric{}
	for _, c := range []struct {
		name string
		cs   *stats.CacheStats
	}{
		{"l2", &sum.L2}, {"ctr", &sum.CounterCache}, {"mac", &sum.MACCache},
		{"bmt", &sum.BMTCache}, {"cctr", &sum.CompactCache}, {"cbmt", &sum.CompactBMTC},
	} {
		m["cache."+c.name+".hit_rate"] = metric{c.cs.HitRate(), "frac"}
		m["cache."+c.name+".mshr_merge_frac"] = metric{ratio(float64(c.cs.MSHRMerges), float64(c.cs.Accesses())), "frac"}
	}
	insts := float64(sum.Instructions)
	m["dram.bytes_per_inst"] = metric{ratio(float64(sum.Traffic.Total()), insts), "B/inst"}
	for _, cl := range stats.Classes() {
		m["dram."+cl.String()+".bytes_per_inst"] = metric{ratio(float64(sum.Traffic.Bytes(cl)), insts), "B/inst"}
	}
	m["dram.meta_bytes_per_data_byte"] = metric{ratio(float64(sum.Traffic.MetadataBytes()), float64(sum.Traffic.Bytes(stats.Data))), "B/B"}
	sec := sum.Sec
	m["counters.compact_overflow_frac"] = metric{ratio(float64(sec.CompactOverflow), float64(sec.CompactHits+sec.CompactOverflow+sec.CompactDisabled)), "frac"}
	m["secmem.value_verified_frac"] = metric{ratio(float64(sec.ValueVerified), float64(sec.ValueVerified+sec.MACVerified)), "frac"}
	m["bmt.node_verifies_per_read"] = metric{ratio(float64(sec.BMTNodeVerifies), float64(sum.Traffic.Reads[stats.Data])), "1/read"}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
