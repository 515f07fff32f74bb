package harness

import (
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// TestReportCompactCacheLine: the report prints the compact-counter and
// compact-BMT cache hit rates exactly when the scheme has compact
// counters — decided by the configuration, not by whether the caches
// saw traffic.
func TestReportCompactCacheLine(t *testing.T) {
	const line = "compact counter / compact BMT cache hit rates: "
	st := &stats.Stats{Instructions: 10, Cycles: 10}
	st.Traffic.Reads[stats.Data] = 1
	st.CompactCache = stats.CacheStats{Hits: 3, Misses: 1}
	st.CompactBMTC = stats.CacheStats{Hits: 1, Misses: 1}

	for _, tc := range []struct {
		sc   secmem.Config
		want string // "" means the line must be absent
	}{
		{secmem.Plutus(128 << 20), line + "75.0% / 50.0%\n"},
		{secmem.PlutusNoTree(128 << 20), line + "75.0% / 50.0%\n"},
		{secmem.PSSM(128 << 20), ""},
		{secmem.MGXConfig(128 << 20), ""},
		{secmem.Baseline(128 << 20), ""},
	} {
		out := Report(st, tc.sc)
		if tc.want == "" {
			if strings.Contains(out, line) {
				t.Errorf("%s: report prints compact cache rates for a scheme without compact counters:\n%s", tc.sc.Scheme, out)
			}
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.sc.Scheme, tc.want, out)
		}
	}

	// A compact scheme whose compact caches saw no traffic still prints
	// the line.
	if out := Report(&stats.Stats{}, secmem.Plutus(128<<20)); !strings.Contains(out, line+"0.0% / 0.0%\n") {
		t.Errorf("idle compact caches not reported:\n%s", out)
	}
}
