package dense

import "testing"

// Index agrees with a map through a random run of puts, replacements,
// deletions and lookups — over keys drawn from a small range, so probe
// runs collide, wrap and shift back — across growth, Reserve and Reset.
func TestIndexMatchesMap(t *testing.T) {
	var x Index
	ref := map[uint64]int32{}
	rng := xorshift(7)
	for op := 0; op < 200000; op++ {
		k := rng.next() % 300
		if op%7 == 0 {
			k = rng.next() // sparse keys far apart
		}
		switch r := rng.next() % 16; {
		case r < 7:
			v := int32(rng.next() % 1000)
			x.Put(k, v)
			ref[k] = v
		case r < 13:
			x.Delete(k)
			delete(ref, k)
		case r == 13 && op%5000 == 0:
			x.Reset()
			clear(ref)
		case r == 14 && op%3000 == 0:
			x.Reserve(int(rng.next() % 600))
		}
		got, ok := x.Get(k)
		want, wantOK := ref[k]
		if ok != wantOK || got != want {
			t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", op, k, got, ok, want, wantOK)
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, x.Len(), len(ref))
		}
	}
	for k, want := range ref {
		if got, ok := x.Get(k); !ok || got != want {
			t.Fatalf("final Get(%d) = %d, %v; want %d", k, got, ok, want)
		}
	}
	if 2*x.Len() > len(x.slots) {
		t.Fatalf("%d keys in %d slots: more than half full", x.Len(), len(x.slots))
	}
}

// A reserved index takes its keys, and their turnover, without
// allocating.
func TestIndexReservedZeroAllocs(t *testing.T) {
	var x Index
	x.Reserve(256)
	k := uint64(0)
	churn := func() {
		for i := 0; i < 256; i++ {
			x.Put(k+uint64(i), int32(i))
		}
		for i := 0; i < 256; i++ {
			x.Delete(k + uint64(i))
		}
		k += 256
	}
	if got := testing.AllocsPerRun(20, churn); got != 0 {
		t.Fatalf("reserved index allocates %.1f times per churn", got)
	}
}
