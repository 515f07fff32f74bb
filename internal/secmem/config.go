// Package secmem implements the per-partition secure memory controller:
// the functional and timing model of memory encryption, MAC-based
// integrity, Bonsai-Merkle-Tree freshness, and the three Plutus
// techniques layered on top (value-based integrity verification, compact
// mirrored counters, and fine-granularity metadata blocks).
//
// A scheme is a composition, not a set of flags: Config names one value
// per component — the Verifier that decides a read's verdict, the
// VersionSource that supplies encryption counters, the Tree update
// policy, the compact-counter design, the metadata granularity and the
// cipher — and the registry (ByName) maps each scheme name to one such
// composition. Attack surfaces and report labels are derived from the
// components.
//
// One Engine serves one memory partition, as in PSSM: it owns the
// partition's metadata caches, its value cache, its split-counter state,
// its integrity trees, and its DRAM channel. The datapath is functionally
// real — writebacks truly encrypt into a simulated DRAM image and reads
// decrypt and verify it — so the security guarantees are testable, while
// the timing side charges every metadata access to the shared DRAM
// channel the way the paper's bandwidth analysis requires.
package secmem

import (
	"fmt"
	"strings"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/crypto/gcipher"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/valcache"
)

// Granularity selects the paper's §IV-E metadata-block design space.
type Granularity int

const (
	// GranAll128 is the prior-work baseline: counters, MACs and BMT nodes
	// all live in 128 B blocks; a counter miss fetches the whole block
	// because the BMT hashes 128 B units.
	GranAll128 Granularity = iota
	// GranCtr32BMT128 shrinks counter units to 32 B but keeps 128 B
	// (16-ary) BMT nodes: more leaves, flatter tree.
	GranCtr32BMT128
	// GranAll32 uses 32 B for everything: counter units and BMT nodes
	// (4-ary), so every metadata fetch is a single DRAM transaction but
	// the tree is taller. This is the design Plutus adopts.
	GranAll32
)

// String names the design for reports.
func (g Granularity) String() string {
	switch g {
	case GranAll128:
		return "all-128B"
	case GranCtr32BMT128:
		return "ctr32-bmt128"
	case GranAll32:
		return "all-32B"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// CounterUnitBytes returns the counter fetch/hash granularity.
func (g Granularity) CounterUnitBytes() int {
	if g == GranAll128 {
		return 128
	}
	return 32
}

// BMTNodeBytes returns the tree-node block size.
func (g Granularity) BMTNodeBytes() int {
	if g == GranAll32 {
		return 32
	}
	return 128
}

// Scheme components. The zero value of each is the PSSM baseline's
// choice, so a zero Config is PSSM's datapath: CME, split counters, MAC
// verification and a lazily updated tree. The paper's ablations
// (Figs. 15–17, 20) change one component at a time.

// Verifier is the component that decides a read's integrity verdict.
type Verifier uint8

const (
	// VerifierMAC checks each sector against a MAC stored in DRAM, under
	// encryption counters the BMT keeps fresh (PSSM).
	VerifierMAC Verifier = iota
	// VerifierValue accepts a sector whose decrypted words hit the value
	// cache and falls back to the MAC otherwise (§IV-C). Needs XTS.
	VerifierValue
	// VerifierShares stores each sector as ssmShares Shamir shares and
	// verifies by k-of-n reconstruction consistency: no counters, MACs
	// or tree exist (the ssm frontier scheme).
	VerifierShares
	// VerifierNone verifies nothing and stores plaintext (the
	// no-security normalization baseline).
	VerifierNone
)

// countered reports whether the verifier runs on the counter-mode
// datapath: encrypted data, stored counters, per-sector MACs and a BMT.
func (v Verifier) countered() bool { return v <= VerifierValue }

// VersionSource is the component that supplies each sector's
// encryption version (counter).
type VersionSource uint8

const (
	// VersionsSplit reads versions from the stored split counters,
	// verified through the BMT.
	VersionsSplit VersionSource = iota
	// VersionsCommonRegion models Na et al. [18]: an on-chip tracker of
	// commonRegionBytes regions; reads of never-written regions know
	// their all-zero counters on-chip and skip counter and tree traffic.
	VersionsCommonRegion
	// VersionsDerived is the mgx frontier scheme: sectors on
	// workload-declared regular write streams derive their versions
	// on-chip from the stream cursor (Engine.StreamHint, the
	// secmem↔workload contract); sectors written off every stream fall
	// back to the stored split counters.
	VersionsDerived
)

// Tree is the component that keeps the integrity tree over the stored
// counters up to date.
type Tree uint8

const (
	// TreeLazy rides tree updates on metadata-cache evictions, as every
	// evaluated configuration does.
	TreeLazy Tree = iota
	// TreeEager propagates every counter update to the root at once
	// (paper §II-A3's eager scheme), for the lazy-vs-eager ablation.
	TreeEager
	// TreeNoTraffic keeps the tree but charges none of its traffic,
	// modelling the MGX/TNPU/softVN-style comparison of Fig. 20.
	TreeNoTraffic
)

// Config describes one partition's secure-memory scheme.
type Config struct {
	// Scheme is the display name used in result tables.
	Scheme string

	// Verifier, Versions and Tree are the scheme's components.
	Verifier Verifier
	Versions VersionSource
	Tree     Tree

	// Encryption selects CME (PSSM baseline) or XTS (Plutus).
	Encryption gcipher.Mode

	// MACBytes is the per-sector MAC size: 4 in PSSM, 8 in Plutus.
	MACBytes int

	// Granularity is the metadata-block design (paper §IV-E).
	Granularity Granularity

	// Compact selects the compact mirrored-counter design (§IV-D).
	Compact counters.CompactKind
	// CompactThreshold is the adaptive disable threshold (0 = default 8).
	CompactThreshold int

	// Value configures the value cache of VerifierValue.
	Value valcache.Config

	// ProtectedBytes is the partition's protected data capacity.
	ProtectedBytes uint64

	// MetaCacheBytes sizes each metadata cache (paper: 2 KiB each).
	MetaCacheBytes int

	// Key seeds all cryptographic keys for the partition.
	Key [32]byte
}

// DefaultMetaCacheBytes is the paper's per-cache metadata capacity
// (Table II).
const DefaultMetaCacheBytes = 2048

// Fixed parameters from the paper's Tables I/II and the frontier
// schemes' published designs.
const (
	metaCacheWays     = 4         // metadata-cache associativity
	metaMSHRs         = 256       // outstanding misses per metadata cache
	macLatency        = 40        // MAC engine latency, cycles
	aesLatency        = 30        // AES pipeline latency per sector, cycles
	commonRegionBytes = 16 * 1024 // VersionsCommonRegion tracking granularity
	ssmShares         = 3         // VerifierShares: n, shares per sector
	ssmThreshold      = 2         // VerifierShares: k, shares to reconstruct
)

// Normalize fills zero-valued fields with paper defaults and validates.
func (c *Config) Normalize() error {
	if c.MetaCacheBytes == 0 {
		c.MetaCacheBytes = DefaultMetaCacheBytes
	}
	if c.ProtectedBytes == 0 {
		c.ProtectedBytes = 64 << 20
	}
	if c.MACBytes == 0 {
		c.MACBytes = 8
	}
	if c.Verifier == VerifierValue && c.Value.Entries == 0 {
		c.Value = valcache.DefaultConfig()
	}
	return c.validate()
}

// validate holds every rule on which components compose.
func (c *Config) validate() error {
	switch {
	case c.Verifier > VerifierNone || c.Versions > VersionsDerived || c.Tree > TreeNoTraffic:
		return fmt.Errorf("secmem: unknown component (verifier %d, versions %d, tree %d)", c.Verifier, c.Versions, c.Tree)
	case !c.Verifier.countered() && (c.Versions != VersionsSplit || c.Compact != counters.CompactOff || c.Tree != TreeLazy):
		return fmt.Errorf("secmem: share and no-security verifiers compose with no version source, compact counters or tree")
	case c.Verifier == VerifierNone:
		return nil
	case c.ProtectedBytes%uint64(geom.BlockSize) != 0:
		return fmt.Errorf("secmem: protected size %d not block aligned", c.ProtectedBytes)
	case c.Verifier == VerifierShares:
		return nil
	case c.MACBytes != 1 && c.MACBytes != 2 && c.MACBytes != 4 && c.MACBytes != 8:
		return fmt.Errorf("secmem: MAC size %d B not a power of two ≤ 8", c.MACBytes)
	case c.Versions == VersionsDerived && (c.Compact != counters.CompactOff || c.Verifier == VerifierValue):
		return fmt.Errorf("secmem: derived versions compose only with MAC verification over split counters")
	case c.Verifier == VerifierValue && c.Encryption != gcipher.ModeXTS:
		return fmt.Errorf("secmem: value verification requires XTS (malleability resistance); got %v", c.Encryption)
	case c.Verifier == VerifierValue:
		return c.Value.Validate()
	}
	return nil
}

// --- canonical scheme configurations used across the evaluation ---

// Baseline returns the no-security configuration.
func Baseline(protected uint64) Config {
	return Config{Scheme: "nosec", Verifier: VerifierNone, ProtectedBytes: protected}
}

// PSSM returns the paper's baseline: CME, sectored split counters, 8 B
// MACs (the paper upgrades PSSM's 4 B MAC to 8 B for its baseline),
// 128 B metadata blocks, 16-ary BMT.
func PSSM(protected uint64) Config {
	return Config{
		Scheme:         "pssm",
		Encryption:     gcipher.ModeCME,
		MACBytes:       8,
		Granularity:    GranAll128,
		ProtectedBytes: protected,
	}
}

// PSSM4B returns PSSM with its original truncated 4 B MAC.
func PSSM4B(protected uint64) Config {
	c := PSSM(protected)
	c.Scheme = "pssm-4Bmac"
	c.MACBytes = 4
	return c
}

// CommonCtr returns PSSM plus the common-counters tracker [18].
func CommonCtr(protected uint64) Config {
	c := PSSM(protected)
	c.Scheme = "pssm+cc"
	c.Versions = VersionsCommonRegion
	return c
}

// PlutusValueOnly returns PSSM plus value verification only (Fig. 15).
func PlutusValueOnly(protected uint64) Config {
	c := PSSM(protected)
	c.Scheme = "plutus-V"
	c.Encryption = gcipher.ModeXTS
	c.Verifier = VerifierValue
	c.Value = valcache.DefaultConfig()
	return c
}

// PlutusFineGrain returns PSSM with a given metadata granularity (Fig. 16).
func PlutusFineGrain(protected uint64, g Granularity) Config {
	c := PSSM(protected)
	c.Scheme = "plutus-G-" + g.String()
	c.Granularity = g
	return c
}

// PlutusCompact returns PSSM plus one compact-counter design (Fig. 17).
func PlutusCompact(protected uint64, k counters.CompactKind) Config {
	c := PSSM(protected)
	c.Scheme = "plutus-C-" + k.String()
	c.Compact = k
	return c
}

// Plutus returns the full design: XTS, value verification, adaptive
// compact counters, all-32 B metadata.
func Plutus(protected uint64) Config {
	return Config{
		Scheme:         "plutus",
		Encryption:     gcipher.ModeXTS,
		MACBytes:       8,
		Granularity:    GranAll32,
		Compact:        counters.Compact3BitAdaptive,
		Verifier:       VerifierValue,
		Value:          valcache.DefaultConfig(),
		ProtectedBytes: protected,
	}
}

// PlutusNoTree returns Plutus with integrity-tree traffic eliminated
// (Fig. 20's MGX-style comparison).
func PlutusNoTree(protected uint64) Config {
	c := Plutus(protected)
	c.Scheme = "plutus-notree"
	c.Tree = TreeNoTraffic
	return c
}

// MGXConfig returns the mgx frontier scheme (PAPERS.md: "MGX: Near-Zero
// Overhead Memory Protection for Data-Intensive Accelerators"): XTS
// encryption with 8 B MACs and all-32 B metadata, but version numbers
// for regular-stream sectors derived on-chip from workload stream
// cursors — near-zero counter and tree traffic on accelerator-style
// streaming workloads, with the stored split-counter + BMT path kept as
// the fallback for irregular writes.
func MGXConfig(protected uint64) Config {
	return Config{
		Scheme:         "mgx",
		Encryption:     gcipher.ModeXTS,
		MACBytes:       8,
		Granularity:    GranAll32,
		Versions:       VersionsDerived,
		ProtectedBytes: protected,
	}
}

// SSMConfig returns the secret-sharing frontier scheme (PAPERS.md:
// "Secure Scattered Memory"): each sector stored as 3 Shamir shares
// (2-of-3) scattered across the protected space under keyed rotations.
// There is no counter, MAC or tree fetch path at all — reads fetch the
// shares and reconstruct, and any single-share corruption surfaces as a
// reconstruction inconsistency. The trade-off is the inverse of
// Plutus's: zero metadata traffic, n× data amplification.
func SSMConfig(protected uint64) Config {
	return Config{
		Scheme:         "ssm",
		Verifier:       VerifierShares,
		ProtectedBytes: protected,
	}
}

// schemeTable is the single registry behind ByName and Names: every
// name the CLIs and plutusd's API accept, paired with its constructor,
// in the canonical report order (baseline, prior work, Plutus ablations,
// full Plutus). A slice — not a map — so enumeration order is fixed.
var schemeTable = []struct {
	name string
	make func(uint64) Config
}{
	{"nosec", Baseline},
	{"pssm", PSSM},
	{"pssm-4Bmac", PSSM4B},
	{"pssm+cc", CommonCtr},
	{"plutus-V", PlutusValueOnly},
	{"plutus-G32", func(p uint64) Config { return PlutusFineGrain(p, GranAll32) }},
	{"plutus-G32-128", func(p uint64) Config { return PlutusFineGrain(p, GranCtr32BMT128) }},
	{"plutus-C2", func(p uint64) Config { return PlutusCompact(p, counters.Compact2Bit) }},
	{"plutus-C3", func(p uint64) Config { return PlutusCompact(p, counters.Compact3Bit) }},
	{"plutus-C3A", func(p uint64) Config { return PlutusCompact(p, counters.Compact3BitAdaptive) }},
	{"plutus-notree", PlutusNoTree},
	{"plutus", Plutus},
	{"mgx", MGXConfig},
	{"ssm", SSMConfig},
}

// Names lists every scheme name ByName accepts, in canonical order.
func Names() []string {
	out := make([]string, len(schemeTable))
	for i, s := range schemeTable {
		out[i] = s.name
	}
	return out
}

// ByName resolves a command-line or API scheme name to its canonical
// configuration (the names cmd/plutussim, cmd/benchsmoke and plutusd
// accept). The error for an unknown name lists the full valid set.
func ByName(name string, protected uint64) (Config, error) {
	for _, s := range schemeTable {
		if s.name == name {
			return s.make(protected), nil
		}
	}
	return Config{}, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(Names(), " "))
}

// --- attack-surface capabilities ---
//
// The tamper subsystem validates attack plans against these: an attack
// kind that targets metadata a scheme does not store in DRAM is a plan
// error, not a silent no-op (see tamper.Plan.ValidateFor).

// HasDRAMMAC reports whether the scheme stores per-sector MACs in DRAM
// (the mac-corrupt attack surface).
func (c Config) HasDRAMMAC() bool { return c.Verifier.countered() }

// HasDRAMCounters reports whether the scheme stores encryption counters
// in DRAM (the ctr-rollback attack surface). Every version source does:
// derived versions keep the stored split counters as their
// irregular-write fallback.
func (c Config) HasDRAMCounters() bool { return c.Verifier.countered() }

// HasDRAMTree reports whether the scheme maintains a DRAM-resident
// integrity tree (the bmt-corrupt attack surface). TreeNoTraffic elides
// the tree's traffic, not the tree itself.
func (c Config) HasDRAMTree() bool { return c.Verifier.countered() }

// VerifyPath names the mechanism that decides a read's integrity
// verdict — the column that tells the scheme families apart in the
// frontier table.
func (c Config) VerifyPath() string {
	switch {
	case c.Verifier == VerifierNone:
		return "none"
	case c.Verifier == VerifierShares:
		return fmt.Sprintf("reconstruct %d-of-%d", ssmThreshold, ssmShares)
	case c.Versions == VersionsDerived:
		return "mac+bmt, derived versions"
	case c.Verifier == VerifierValue:
		return "value-match, mac+bmt fallback"
	case c.Tree == TreeNoTraffic:
		return "mac+bmt (tree traffic elided)"
	default:
		return "mac+bmt"
	}
}

// keys derives the distinct engine keys from the config key material.
func (c *Config) keys() (enc [32]byte, mac siphash.Key, tree siphash.Key) {
	enc = c.Key
	var mb, tb [16]byte
	for i := 0; i < 16; i++ {
		mb[i] = c.Key[i] ^ 0x5a
		tb[i] = c.Key[16+i] ^ 0xa5
	}
	return enc, siphash.NewKey(mb), siphash.NewKey(tb)
}

// metaCache builds one metadata cache with the configured geometry.
func (c *Config) metaCache(name string, blockBytes int) *cache.Cache {
	return cache.MustNew(cache.Config{
		Name:      name,
		SizeBytes: c.MetaCacheBytes,
		BlockSize: blockBytes,
		Ways:      metaCacheWays,
		MSHRs:     metaMSHRs,
	})
}
