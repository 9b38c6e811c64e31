// Package sweep is the design-space sweep engine: it enumerates a
// cache-size × line-size × bus-width space from a Config, evaluates
// each design's hit ratio (analytic model, cache simulation, or a
// single-pass miss-ratio curve — internal/mrc), mean memory delay per
// reference, chip area (rbe) and package pins, and flags the
// Pareto-efficient designs in (delay, area, pins).
//
// The engine is shared by the sweep CLI (cmd/sweep) and the evaluation
// service (internal/service, cmd/tradeoffd). Evaluation runs on a
// bounded worker pool sized by Workers (default runtime.NumCPU());
// output ordering is deterministic — identical to a serial sweep —
// regardless of worker completion order.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"tradeoff/internal/mrc"
	"tradeoff/internal/trace"
)

// Config is the JSON schema of a design-space sweep. The zero value of
// every optional field selects its documented default via SetDefaults.
type Config struct {
	CacheKB    []int   `json:"cache_kb"`     // cache sizes in KiB
	LineBytes  []int   `json:"line_bytes"`   // line sizes
	BusBits    []int   `json:"bus_bits"`     // external data bus widths in bits
	Assoc      int     `json:"assoc"`        // associativity (default 2)
	LatencyNS  float64 `json:"latency_ns"`   // memory access latency
	TransferNS float64 `json:"transfer_ns"`  // one bus transfer, any width
	CPUNS      float64 `json:"cpu_ns"`       // processor cycle time
	AddrBits   int     `json:"addr_bits"`    // address bus width (default 32)
	CtrlPins   int     `json:"control_pins"` // control pin allowance (default 40)
	HitSource  string  `json:"hit_source"`   // "model", "an:", "sim:", "mrc:" or "mrc~:<workload>"
	Mode       string  `json:"mode"`         // "exact", "model" or "auto" (default "exact")
	SimRefs    int     `json:"sim_refs"`     // references per simulated point (default 200000)
	Seed       uint64  `json:"seed"`
	MRCRate    float64 `json:"mrc_rate"`   // mrc~: initial sampling rate (default 0.1)
	MRCBudget  int     `json:"mrc_budget"` // mrc~: max tracked blocks (default 8192)

	// Levels adds cache levels below the first: entry i describes
	// level i+2's axes (the top-level CacheKB/LineBytes/BusBits axes
	// describe L1). Empty means the classic single-level sweep; the
	// field is omitted from canonical keys then, so existing flat
	// configs memoize — and golden-test — identically.
	Levels []LevelAxes `json:"levels,omitempty"`
}

// LevelAxes is one additional cache level's slice of the design space.
// Combinations that break hierarchy monotonicity (a level smaller than
// the one above it, or with a shorter line) are skipped at enumeration
// rather than rejected, so coarse per-level axes compose freely.
type LevelAxes struct {
	CacheKB   []int `json:"cache_kb"`             // level capacities in KiB
	LineBytes []int `json:"line_bytes,omitempty"` // empty: inherit the line above
	Assoc     int   `json:"assoc,omitempty"`      // 0: inherit the top-level assoc
	// LatencyNS is the level's access latency; it must be positive,
	// non-decreasing with depth, and at most the memory latency_ns
	// (deeper must not be faster than shallower, and no cache level
	// slower than memory itself).
	LatencyNS float64 `json:"latency_ns"`
}

// Evaluation modes: how the mode knob reinterprets hit_source here
// and a stall grid's replays in internal/simjob. ModeExact prices
// hit_source exactly as written. ModeModel re-prices any
// workload-bearing source ("sim:", "mrc:", "mrc~:") with the
// closed-form analytic tier (internal/model). The analytic tier covers
// every workload Validate admits, so ModeAuto resolves exactly like
// ModeModel; it stays an accepted spelling on the wire.
const (
	ModeExact = "exact"
	ModeModel = "model"
	ModeAuto  = "auto"
)

// ValidateMode rejects a mode outside {exact, model, auto}; callers
// prefix their package's name to the error.
func ValidateMode(mode string) error {
	switch mode {
	case ModeExact, ModeModel, ModeAuto:
		return nil
	}
	return fmt.Errorf("mode %q, want %q, %q or %q", mode, ModeExact, ModeModel, ModeAuto)
}

// AnalyticMode reports whether mode prices from the analytic tier:
// the one rule a sweep's hit source and a stall grid's points are
// both resolved by.
func AnalyticMode(mode string) bool { return mode == ModeModel || mode == ModeAuto }

// hitSourcePrefixes are the workload-bearing hit-source forms, in
// match order ("mrc~:" before "mrc:" so CutPrefix cannot mis-split).
var hitSourcePrefixes = []string{"an:", "sim:", "mrc~:", "mrc:"}

// SourceWorkload splits a hit source into its prefix and workload
// name. The bare "model" source (the calibrated miss-ratio surface)
// carries no workload: ok is false.
func SourceWorkload(hitSource string) (prefix, workload string, ok bool) {
	for _, p := range hitSourcePrefixes {
		if name, found := strings.CutPrefix(hitSource, p); found {
			return p, name, true
		}
	}
	return "", "", false
}

// validateHitSource rejects malformed hit sources at validation time.
// Every prefixed source must name a known workload: a bare prefix
// ("mrc:") or an unknown name used to pass Validate and only fail
// deep inside the run, after the service had already admitted and
// memoized the request.
func validateHitSource(hitSource string) error {
	if hitSource == "model" {
		return nil
	}
	prefix, name, ok := SourceWorkload(hitSource)
	if !ok {
		return fmt.Errorf("sweep: hit_source %q, want \"model\", \"an:\", \"sim:\", \"mrc:\" or \"mrc~:<workload>\"", hitSource)
	}
	if name == "" {
		return fmt.Errorf("sweep: hit_source %q names no workload: %q must be followed by one of %s",
			hitSource, prefix, strings.Join(trace.Workloads(), ", "))
	}
	if unknown := trace.ValidWorkloads([]string{name}); len(unknown) > 0 {
		return fmt.Errorf("sweep: hit_source %q: unknown workload %q, want one of %s",
			hitSource, name, strings.Join(trace.Workloads(), ", "))
	}
	return nil
}

// EffectiveHitSource resolves the Mode knob against HitSource and
// returns the source the engine actually prices. ModeExact passes the
// source through; ModeModel and ModeAuto re-price every
// workload-bearing source ("sim:w", "mrc:w", "mrc~:w") as the analytic
// curve "an:w". The bare "model" surface carries no workload and
// passes through under every mode. It assumes SetDefaults has run.
func (c Config) EffectiveHitSource() string {
	if _, name, ok := SourceWorkload(c.HitSource); ok && AnalyticMode(c.Mode) {
		return "an:" + name
	}
	return c.HitSource
}

// ExampleConfig is a commented-out-free example configuration, printed
// by `sweep -example` and used by the golden tests.
const ExampleConfig = `{
  "cache_kb":    [4, 8, 16, 32, 64],
  "line_bytes":  [16, 32, 64],
  "bus_bits":    [32, 64],
  "assoc":       2,
  "latency_ns":  360,
  "transfer_ns": 60,
  "cpu_ns":      30,
  "hit_source":  "model"
}`

// SetDefaults fills zero-valued optional fields with their defaults.
func (c *Config) SetDefaults() {
	if c.Assoc == 0 {
		c.Assoc = 2
	}
	if c.AddrBits == 0 {
		c.AddrBits = 32
	}
	if c.CtrlPins == 0 {
		c.CtrlPins = 40
	}
	if c.HitSource == "" {
		c.HitSource = "model"
	}
	if c.Mode == "" {
		c.Mode = ModeExact
	}
	if c.SimRefs == 0 {
		c.SimRefs = 200_000
	}
	if c.Seed == 0 {
		c.Seed = 1994
	}
	def := mrc.DefaultSampler()
	if c.MRCRate == 0 {
		c.MRCRate = def.Rate
	}
	if c.MRCBudget == 0 {
		c.MRCBudget = def.Budget
	}
	for i := range c.Levels {
		if c.Levels[i].Assoc == 0 {
			c.Levels[i].Assoc = c.Assoc
		}
	}
}

// Validate reports configurations outside the engine's domain. It
// assumes SetDefaults has run.
func (c *Config) Validate() error {
	switch {
	case len(c.CacheKB) == 0 || len(c.LineBytes) == 0 || len(c.BusBits) == 0:
		return fmt.Errorf("sweep: cache_kb, line_bytes and bus_bits must be non-empty")
	case c.LatencyNS <= 0 || c.TransferNS <= 0 || c.CPUNS <= 0:
		return fmt.Errorf("sweep: latency_ns, transfer_ns and cpu_ns must be positive")
	case c.Assoc < 0:
		return fmt.Errorf("sweep: assoc = %d, want >= 0", c.Assoc)
	case c.AddrBits <= 0 || c.AddrBits > 128:
		return fmt.Errorf("sweep: addr_bits = %d, want in (0, 128]", c.AddrBits)
	case c.CtrlPins < 0:
		return fmt.Errorf("sweep: control_pins = %d, want >= 0", c.CtrlPins)
	case c.SimRefs < 0:
		return fmt.Errorf("sweep: sim_refs = %d, want >= 0", c.SimRefs)
	}
	for _, kb := range c.CacheKB {
		if kb <= 0 {
			return fmt.Errorf("sweep: cache_kb entry %d, want > 0", kb)
		}
	}
	for _, l := range c.LineBytes {
		if l <= 0 {
			return fmt.Errorf("sweep: line_bytes entry %d, want > 0", l)
		}
	}
	for _, b := range c.BusBits {
		if b <= 0 || b%8 != 0 {
			return fmt.Errorf("sweep: bus_bits entry %d, want a positive multiple of 8", b)
		}
	}
	if err := validateHitSource(c.HitSource); err != nil {
		return err
	}
	if err := ValidateMode(c.Mode); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := (mrc.SamplerConfig{Rate: c.MRCRate, Budget: c.MRCBudget}).Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	prevLatency := 0.0
	for i, lv := range c.Levels {
		if len(lv.CacheKB) == 0 {
			return fmt.Errorf("sweep: levels[%d].cache_kb must be non-empty", i)
		}
		for _, kb := range lv.CacheKB {
			if kb <= 0 {
				return fmt.Errorf("sweep: levels[%d].cache_kb entry %d, want > 0", i, kb)
			}
		}
		for _, l := range lv.LineBytes {
			if l <= 0 {
				return fmt.Errorf("sweep: levels[%d].line_bytes entry %d, want > 0", i, l)
			}
		}
		if lv.Assoc < 0 {
			return fmt.Errorf("sweep: levels[%d].assoc = %d, want >= 0", i, lv.Assoc)
		}
		if lv.LatencyNS <= 0 || lv.LatencyNS < prevLatency || lv.LatencyNS > c.LatencyNS {
			return fmt.Errorf("sweep: levels[%d].latency_ns = %g, want positive, non-decreasing with depth, and at most latency_ns = %g",
				i, lv.LatencyNS, c.LatencyNS)
		}
		prevLatency = lv.LatencyNS
	}
	return nil
}

// Limits bounds the work a single sweep may request — the service
// applies these to untrusted payloads so a request cannot allocate an
// absurd simulated cache or monopolize the pool. Zero fields mean
// "no limit" for that dimension.
type Limits struct {
	MaxPoints  int // design points after enumeration
	MaxCacheKB int // largest simulated cache, KiB
	MaxSimRefs int // simulated references per point
}

// DefaultLimits is what the service enforces unless configured
// otherwise: generous for interactive use, stingy for abuse.
var DefaultLimits = Limits{MaxPoints: 4096, MaxCacheKB: 1 << 16, MaxSimRefs: 5_000_000}

// SatMul returns a·b for non-negative a and b, saturating at
// math.MaxInt instead of wrapping. The admission checks multiply axis
// lengths with it, so a payload of long axes can only overstate its
// point count, never wrap under a limit.
func SatMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// flatPoints bounds the design points of the L1 axes alone: their
// product, before the line >= 2D filter.
func (c *Config) flatPoints() int {
	return SatMul(SatMul(len(c.CacheKB), len(c.LineBytes)), len(c.BusBits))
}

// levelChoices is the number of (capacity, line) choices of one deeper
// level's axes.
func levelChoices(lv LevelAxes) int {
	lines := len(lv.LineBytes)
	if lines == 0 {
		lines = 1 // inherited line: one choice per combination
	}
	return SatMul(len(lv.CacheKB), lines)
}

// CheckLimits reports whether the configuration fits within lim.
// It assumes SetDefaults has run.
func (c *Config) CheckLimits(lim Limits) error {
	n := c.flatPoints()
	for _, lv := range c.Levels {
		n = SatMul(n, levelChoices(lv))
	}
	if lim.MaxPoints > 0 && n > lim.MaxPoints {
		return fmt.Errorf("sweep: %d design points exceeds the limit of %d", n, lim.MaxPoints)
	}
	if lim.MaxCacheKB > 0 {
		for _, kb := range c.CacheKB {
			if kb > lim.MaxCacheKB {
				return fmt.Errorf("sweep: cache_kb %d exceeds the limit of %d", kb, lim.MaxCacheKB)
			}
		}
		for i, lv := range c.Levels {
			for _, kb := range lv.CacheKB {
				if kb > lim.MaxCacheKB {
					return fmt.Errorf("sweep: levels[%d].cache_kb %d exceeds the limit of %d", i, kb, lim.MaxCacheKB)
				}
			}
		}
	}
	if lim.MaxSimRefs > 0 && c.SimRefs > lim.MaxSimRefs {
		return fmt.Errorf("sweep: sim_refs %d exceeds the limit of %d", c.SimRefs, lim.MaxSimRefs)
	}
	return nil
}

// ParseConfig decodes a JSON sweep configuration, applies defaults and
// validates it. This is the single entry point both the CLI and the
// HTTP service use, so their parameter-domain checks cannot drift.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("sweep: parsing config: %w", err)
	}
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Canonical returns the canonicalized JSON encoding of the config with
// defaults applied — a deterministic memoization key: two requests that
// differ only in field order, whitespace, or spelled-out defaults
// canonicalize identically.
func (c Config) Canonical() ([]byte, error) {
	c.SetDefaults()
	return json.Marshal(c)
}
