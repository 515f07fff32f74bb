package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"github.com/plutus-gpu/plutus/internal/bmt"
	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/crypto/gcipher"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/valcache"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// drainEvery is how many requests the standalone engines take before
// their event queue is drained: enough to overlap requests in the
// DRAM banks and metadata MSHRs, as a partition under load does.
const drainEvery = 32

// sink keeps driver results live so the compiler cannot drop the calls.
var sink uint64

// measure runs pass — one sweep over perPass inputs — until minDur has
// passed (at least once) and returns host ns and heap allocations per
// call, and the number of calls made.
func measure(perPass int, minDur time.Duration, pass func()) (ns, allocs float64, calls int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < minDur {
		pass()
		passes++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	calls = passes * perPass
	return float64(el.Nanoseconds()) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls), calls
}

// layerInputs are the sectors the workload's first cell issued, mapped
// to partition-local addresses, with the plaintext each holds.
type layerInputs struct {
	addrs  []geom.Addr // loads first, then stores
	write  []bool
	data   [][]byte
	nLoads int
}

// newLayerInputs maps captured global sectors onto one partition's
// local space. Values come from the workload's own memory image (loads)
// and store values (stores). A stream without stores reuses its loads
// as write inputs.
func newLayerInputs(c *capture, wl gpusim.Workload) (*layerInputs, error) {
	il, err := geom.NewInterleaver(gpusim.ScaledConfig(secmem.Config{}).Partitions)
	if err != nil {
		return nil, err
	}
	stores := c.stores
	if len(stores) == 0 {
		stores = c.loads
	}
	if len(c.loads) == 0 || len(stores) == 0 {
		return nil, fmt.Errorf("layer drivers: captured %d loads and %d stores", len(c.loads), len(c.stores))
	}
	in := &layerInputs{nLoads: len(c.loads)}
	add := func(global geom.Addr, write bool) {
		value := wl.MemValue
		if write {
			value = func(a geom.Addr) uint32 { return wl.StoreValue(0, a) }
		}
		in.addrs = append(in.addrs, il.LocalAddr(global))
		in.write = append(in.write, write)
		in.data = append(in.data, sectorOf(global, value))
	}
	for _, a := range c.loads {
		add(a, false)
	}
	for _, a := range stores {
		add(a, true)
	}
	return in, nil
}

// sectorOf packs the words value gives for the sector at global into
// plaintext bytes, little-endian as gpusim lays them out.
func sectorOf(global geom.Addr, value func(geom.Addr) uint32) []byte {
	buf := make([]byte, geom.SectorSize)
	for k := 0; k < geom.SectorSize/4; k++ {
		binary.LittleEndian.PutUint32(buf[k*4:], value(global+geom.Addr(k*4)))
	}
	return buf
}

func (in *layerInputs) loads() []geom.Addr  { return in.addrs[:in.nLoads] }
func (in *layerInputs) stores() []geom.Addr { return in.addrs[in.nLoads:] }

// runLayerDrivers times the public entry points of each layer on the
// captured stream, each on its own standalone instance.
func runLayerDrivers(c *capture, w workloadDef, minDur time.Duration) (map[string]metric, error) {
	wl, err := workload.GetSeeded(c.spec.bench, c.spec.seed)
	if err != nil {
		return nil, err
	}
	in, err := newLayerInputs(c, wl)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	put := func(name string, ns, allocs float64) {
		m[name+"_ns"] = metric{ns, "ns"}
		m[name+"_allocs"] = metric{allocs, "allocs/call"}
	}
	sc, err := secmem.ByName(w.layerScheme, protected)
	if err != nil {
		return nil, err
	}
	gcfg := cellConfig(sc, 0)
	il, err := geom.NewInterleaver(gcfg.Partitions)
	if err != nil {
		return nil, err
	}

	// secmem: a partition's engine on its own event queue and channel,
	// holding partition 0's share of the workload's memory image.
	newEngine := func() (*sim.Engine, *secmem.Engine, *stats.Stats, error) {
		eng := &sim.Engine{}
		st := &stats.Stats{}
		ch, err := dram.New(gcfg.DRAM, eng, &st.Traffic)
		if err != nil {
			return nil, nil, nil, err
		}
		e, err := secmem.New(gcfg.Sec, eng, ch, st)
		if err != nil {
			return nil, nil, nil, err
		}
		e.InitData = func(local geom.Addr) []byte { return sectorOf(il.GlobalAddr(0, local), wl.MemValue) }
		return eng, e, st, nil
	}
	eng, e, st, err := newEngine()
	if err != nil {
		return nil, err
	}
	var reads, badReads int
	onRead := func(r secmem.ReadResult) {
		reads++
		if !r.OK {
			badReads++
		}
	}
	loads := in.loads()
	ns, allocs, calls := measure(len(loads), minDur, func() {
		for i, a := range loads {
			e.Read(a, onRead)
			if i%drainEvery == drainEvery-1 {
				eng.Drain(0)
			}
		}
		eng.Drain(0)
	})
	if reads != calls || badReads != 0 || st.Sec.TamperDetected+st.Sec.ReplayDetected != 0 {
		return nil, fmt.Errorf("secmem.Read driver: %d of %d reads completed, %d failed verification", reads, calls, badReads)
	}
	put("secmem.read", ns, allocs)

	eng, e, st, err = newEngine()
	if err != nil {
		return nil, err
	}
	writes := 0
	onWrite := func() { writes++ }
	stores := in.stores()
	storeData := in.data[in.nLoads:]
	ns, allocs, calls = measure(len(stores), minDur, func() {
		for i, a := range stores {
			e.Writeback(a, storeData[i], onWrite)
			if i%drainEvery == drainEvery-1 {
				eng.Drain(0)
			}
		}
		eng.Drain(0)
	})
	if writes != calls || st.Sec.TamperDetected+st.Sec.ReplayDetected != 0 {
		return nil, fmt.Errorf("secmem.Writeback driver: %d of %d writebacks completed", writes, calls)
	}
	put("secmem.writeback", ns, allocs)

	// cache: the L2 geometry, every miss filled at once.
	l2, err := cache.New(cache.Config{
		Name: "l2", SizeBytes: gcfg.L2PerPartition, BlockSize: geom.BlockSize,
		Ways: gcfg.L2Ways, MSHRs: gcfg.L2MSHRs,
	})
	if err != nil {
		return nil, err
	}
	var lookupErr error
	ns, allocs, _ = measure(len(in.addrs), minDur, func() {
		for i, a := range in.addrs {
			o, need, ms := l2.Lookup(a, l2.MaskFor(a), in.write[i], nil)
			switch o {
			case cache.Hit:
			case cache.Miss:
				l2.FillSectors(ms, need, in.write[i])
			default:
				lookupErr = fmt.Errorf("cache driver: lookup of %#x returned %v with no miss outstanding", a, o)
			}
		}
	})
	if lookupErr != nil {
		return nil, lookupErr
	}
	put("cache.l2.lookup", ns, allocs)

	// dram: one channel, reads and writes as issued.
	{
		eng := &sim.Engine{}
		var tr stats.Traffic
		ch, err := dram.New(gcfg.DRAM, eng, &tr)
		if err != nil {
			return nil, err
		}
		done := 0
		onDone := func() { done++ }
		ns, allocs, calls = measure(len(in.addrs), minDur, func() {
			for i, a := range in.addrs {
				ch.Access(a, in.write[i], stats.Data, onDone)
				if i%drainEvery == drainEvery-1 {
					eng.Drain(0)
				}
			}
			eng.Drain(0)
		})
		if done != calls {
			return nil, fmt.Errorf("dram driver: %d of %d accesses completed", done, calls)
		}
		put("dram.access", ns, allocs)
	}

	// sim: schedule+dispatch pairs with delays taken from the addresses.
	{
		eng := &sim.Engine{}
		ran := 0
		fn := func() { ran++ }
		delays := make([]sim.Cycle, len(in.addrs))
		for i, a := range in.addrs {
			delays[i] = sim.Cycle(uint64(a) / geom.SectorSize % 6000)
		}
		ns, allocs, calls = measure(len(delays), minDur, func() {
			for _, d := range delays {
				eng.Schedule(d, fn)
				eng.Step()
			}
		})
		eng.Drain(0)
		if ran != calls {
			return nil, fmt.Errorf("sim driver: %d of %d events ran", ran, calls)
		}
		put("sim.event", ns, allocs)
	}

	// bmt: the Plutus tree geometry over this partition's counters.
	pl := secmem.Plutus(protected)
	unitBytes := uint64(pl.Granularity.CounterUnitBytes())
	split := counters.DefaultSplitConfig()
	groups := (protected/geom.SectorSize + uint64(split.GroupSize) - 1) / uint64(split.GroupSize)
	tree, err := bmt.New(bmt.Config{
		Units: groups * geom.SectorSize / unitBytes, UnitBytes: int(unitBytes),
		NodeBytes: pl.Granularity.BMTNodeBytes(), Key: siphash.NewKey([16]byte{1, 2, 3}),
	}, 0)
	if err != nil {
		return nil, err
	}
	sectorIdx := make([]uint64, len(in.addrs))
	units := make([]uint64, len(in.addrs))
	for i, a := range in.addrs {
		sectorIdx[i] = uint64(a) / geom.SectorSize
		units[i] = sectorIdx[i] / uint64(split.GroupSize) * geom.SectorSize / unitBytes
	}
	ns, allocs, _ = measure(len(units), minDur, func() {
		for _, u := range units {
			sink += uint64(len(tree.Path(u)))
		}
	})
	put("bmt.path", ns, allocs)
	pass := uint64(0)
	ns, allocs, _ = measure(len(units), minDur, func() {
		pass++
		for i, u := range units {
			tree.SetUnitHash(u, splitmix64(pass<<32|uint64(i)))
		}
	})
	put("bmt.set_unit_hash", ns, allocs)
	ns, allocs, _ = measure(len(units), minDur, func() {
		for _, u := range units {
			sink += tree.UnitHash(u)
		}
	})
	put("bmt.unit_hash", ns, allocs)

	// crypto: one sector per call, as the datapath encrypts and MACs.
	var key [32]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	dst := make([]byte, geom.SectorSize)
	for _, mode := range []struct {
		name string
		mode gcipher.Mode
	}{{"crypto.xts_sector", gcipher.ModeXTS}, {"crypto.cme_sector", gcipher.ModeCME}} {
		ce, err := gcipher.NewEngine(mode.mode, key)
		if err != nil {
			return nil, err
		}
		var encErr error
		ns, allocs, _ = measure(len(in.addrs), minDur, func() {
			for i, a := range in.addrs {
				if err := ce.EncryptInto(dst, in.data[i], uint64(a), uint64(i)); err != nil {
					encErr = err
				}
			}
		})
		if encErr != nil {
			return nil, fmt.Errorf("%s driver: %w", mode.name, encErr)
		}
		put(mode.name, ns, allocs)
	}
	macKey := siphash.NewKey([16]byte{4, 5, 6})
	ns, allocs, _ = measure(len(in.addrs), minDur, func() {
		for i, a := range in.addrs {
			sink += siphash.SumTagged(macKey, in.data[i], uint64(a), uint64(i))
		}
	})
	put("crypto.mac_sector", ns, allocs)

	// valcache: observe the loaded sectors, then verify them against the
	// values observed — the read path's order on a warm cache.
	vc, err := valcache.New(valcache.DefaultConfig())
	if err != nil {
		return nil, err
	}
	loadData := in.data[:in.nLoads]
	ns, allocs, _ = measure(len(loadData), minDur, func() {
		for _, d := range loadData {
			vc.ObserveSector(d)
		}
	})
	put("valcache.observe_sector", ns, allocs)
	ns, allocs, _ = measure(len(loadData), minDur, func() {
		for _, d := range loadData {
			if vc.VerifySector(d).Verified {
				sink++
			}
		}
	})
	put("valcache.verify_sector", ns, allocs)

	// counters: a write's split-counter increment and the compact view's
	// NoteWrite, the pair every counter-mode write performs.
	ss, err := counters.NewSplitStore(split)
	if err != nil {
		return nil, err
	}
	cv, err := counters.NewCompactView(counters.Compact3BitAdaptive, ss, 0)
	if err != nil {
		return nil, err
	}
	storeIdx := sectorIdx[in.nLoads:]
	ns, allocs, _ = measure(len(storeIdx), minDur, func() {
		for _, i := range storeIdx {
			ss.Increment(i)
			if o, _ := cv.NoteWrite(i); o == counters.ServedOverflowed {
				sink++
			}
		}
	})
	put("counters.note_write", ns, allocs)
	return m, nil
}
