// Package tradeoff is the public API of the unified architectural
// tradeoff methodology (Chen & Somani, ISCA 1994).
//
// The methodology prices architectural features — external data-bus
// width, processor stalling disciplines, read-bypassing write buffers,
// pipelined memory systems, and cache line size — in a single
// currency: cache hit ratio. Two systems that differ in one feature
// perform identically exactly when their mean memory delay per
// reference is equal; solving that equality yields the hit-ratio
// difference ΔHR the feature is worth, and hence the cache size (chip
// area) it can replace.
//
// # Pricing a feature
//
//	tr, err := tradeoff.Price(tradeoff.Spec{Feature: tradeoff.DoubleBus},
//	    tradeoff.DesignPoint{HitRatio: 0.95, Alpha: 0.5, L: 32, D: 4, BetaM: 10})
//	// tr.DeltaHR: the hit ratio a doubled bus is worth (≈5.1% here)
//
// # Measuring a workload
//
// The package also exposes the simulation substrate the paper's
// evaluation used: synthetic workload models, a cache simulator, and a
// cycle-level stall engine. MeasureWorkload runs a named workload model
// through a cache and returns the {R, W, α, hit ratio} application
// profile of the paper's Table 1; SimulatePhi measures the stalling
// factor φ of a partially-stalling cache (Table 2, Eq. 8), which feeds
// back into Price via Spec.Phi.
//
// The subpackages under internal/ carry the full implementation; this
// package is the stable surface. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package tradeoff

import (
	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/linesize"
	"tradeoff/internal/memory"
	"tradeoff/internal/missratio"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

// Feature identifies an architectural feature to price against a
// full-blocking, non-pipelined, unbuffered base system.
type Feature = core.Feature

// The four features of the paper's unified comparison (Table 3).
const (
	// DoubleBus doubles the external data-bus width D → 2D (§4.1).
	DoubleBus = core.FeatureDoubleBus
	// PartialStall replaces the full-stalling cache with a BL/BNL one
	// of measured stalling factor φ (§4.2).
	PartialStall = core.FeaturePartialStall
	// WriteBuffers adds ideal read-bypassing write buffers (§4.3).
	WriteBuffers = core.FeatureWriteBuffers
	// PipelinedMemory pipelines the memory with readiness interval q
	// (§4.4, Eq. 9).
	PipelinedMemory = core.FeaturePipelinedMemory
)

// Spec selects a feature and its feature-specific knobs.
type Spec struct {
	Feature Feature
	Phi     float64 // PartialStall: stalling factor φ ∈ [1, L/D]
	Q       float64 // PipelinedMemory: readiness interval q ≥ 1
}

// DesignPoint fixes the shared hardware parameters and the base
// system's hit ratio.
type DesignPoint struct {
	HitRatio float64 // base system data-cache hit ratio, in (0, 1)
	Alpha    float64 // flush ratio α ∈ [0, 1] (the paper uses 0.5)
	L        float64 // cache line size in bytes
	D        float64 // external data-bus width in bytes
	BetaM    float64 // memory cycle time per D-byte transfer, in clocks
}

// Result is a priced tradeoff: the hit ratio the feature is worth.
type Result = core.Tradeoff

// Price returns the hit ratio the feature is worth at the design
// point: the base system at dp.HitRatio performs like the improved
// system at dp.HitRatio − Result.DeltaHR (Eq. 6). Result.Valid is
// false when the implied hit ratio falls out of the physical range.
func Price(spec Spec, dp DesignPoint) (Result, error) {
	return core.FeatureTradeoff(core.FeatureSpec{
		Feature: spec.Feature, Phi: spec.Phi, Q: spec.Q,
	}, dp.HitRatio, dp.Alpha, dp.L, dp.D, dp.BetaM)
}

// PriceAt is Price at an issue width above one — the paper's §6
// future-work extension. issue = 1 matches Price exactly.
func PriceAt(spec Spec, dp DesignPoint, issue float64) (Result, error) {
	return core.MultiIssueTradeoff(core.FeatureSpec{
		Feature: spec.Feature, Phi: spec.Phi, Q: spec.Q,
	}, dp.HitRatio, dp.Alpha, dp.L, dp.D, dp.BetaM, issue)
}

// Rank prices all four features at the design point and returns them
// ordered by the hit ratio each trades, largest first (§5.3). phi is
// the measured stalling factor used for PartialStall and q the
// readiness interval for PipelinedMemory.
func Rank(dp DesignPoint, phi, q float64) ([]Result, error) {
	return core.RankFeatures(dp.HitRatio, dp.Alpha, dp.L, dp.D, dp.BetaM, phi, q)
}

// PipelineCrossover returns the memory cycle time βm beyond which a
// pipelined memory system (readiness q) out-trades a doubled bus —
// about five cycles for q=2, L/D=8; +Inf for L = 2D (§5.3, §6).
func PipelineCrossover(q, l, d float64) (float64, error) {
	return core.PipelineCrossover(q, l, d)
}

// BetaP evaluates Eq. (9): the pipelined line-fill time
// βp = βm + q·(L/D − 1).
func BetaP(betaM, q, l, d float64) float64 { return core.BetaP(betaM, q, l, d) }

// StallFeature identifies a processor stalling discipline (Table 2).
type StallFeature = stall.Feature

// The stalling features of Table 2.
const (
	FS   = stall.FS   // full stalling: wait for the entire line
	BL   = stall.BL   // bus-locked: any access during a fill waits
	BNL1 = stall.BNL1 // bus-not-locked: same-line accesses wait for the fill
	BNL2 = stall.BNL2 // like BNL1, but already-arrived words proceed
	BNL3 = stall.BNL3 // accesses wait only for the word they need
	NB   = stall.NB   // non-blocking: the missing access itself proceeds
)

// Workload names a built-in synthetic workload model.
type Workload string

// The six SPEC92-like workload models of Figure 1 (see DESIGN.md §4
// for the substitution rationale) plus the Zipf general-purpose model.
const (
	Nasa7   Workload = trace.Nasa7
	Swm256  Workload = trace.Swm256
	Wave5   Workload = trace.Wave5
	Ear     Workload = trace.Ear
	Doduc   Workload = trace.Doduc
	Hydro2D Workload = trace.Hydro2D
	// ZipfGeneral is a general-purpose workload whose hit-ratio-vs-
	// size curve lands on the Short & Levy numbers of Example 1.
	ZipfGeneral Workload = "zipf"
)

// Workloads lists the built-in workload model names.
func Workloads() []Workload {
	out := make([]Workload, 0, 7)
	for _, p := range trace.Programs() {
		out = append(out, Workload(p))
	}
	return append(out, ZipfGeneral)
}

// CacheSpec describes a cache for workload measurement.
type CacheSpec struct {
	Size      int  // bytes (power of two)
	LineSize  int  // bytes (power of two)
	Assoc     int  // ways; 0 = fully associative
	WriteBack bool // false = write-through
	Allocate  bool // false = write-around on write misses
}

func (cs CacheSpec) config() cache.Config {
	cfg := cache.Config{Size: cs.Size, LineSize: cs.LineSize, Assoc: cs.Assoc}
	if !cs.WriteBack {
		cfg.Write = cache.WriteThrough
	}
	if !cs.Allocate {
		cfg.WriteMiss = cache.WriteAround
	}
	return cfg
}

// Profile is the measured application characterization {E, R, W, α,
// hit ratio} of the paper's Table 1.
type Profile = cache.AppProfile

// MeasureWorkload replays n references of the named workload model
// (seeded deterministically) through the cache and returns the
// application profile.
func MeasureWorkload(w Workload, seed uint64, n int, cs CacheSpec) (Profile, error) {
	src, err := trace.NewWorkload(string(w), seed)
	if err != nil {
		return Profile{}, err
	}
	c, err := cache.New(cs.config())
	if err != nil {
		return Profile{}, err
	}
	return cache.MeasureSource(c, src, n), nil
}

// PhiResult is a measured stalling factor.
type PhiResult struct {
	Phi      float64 // stalling factor φ (Table 2)
	Fraction float64 // φ / (L/D), Figure 1's y-axis
	Misses   uint64  // line fills observed
}

// SimulatePhi measures the stalling factor of the given stalling
// discipline for a workload on the cache/memory design point, using
// the cycle-level replay engine (Eq. 8 semantics).
func SimulatePhi(w Workload, seed uint64, n int, cs CacheSpec, feature StallFeature, betaM int64, busWidth int) (PhiResult, error) {
	src, err := trace.NewWorkload(string(w), seed)
	if err != nil {
		return PhiResult{}, err
	}
	res, err := stall.RunSource(stall.Config{
		Cache:   cs.config(),
		Memory:  memory.Config{BetaM: betaM, BusWidth: busWidth},
		Feature: feature,
	}, src, n)
	if err != nil {
		return PhiResult{}, err
	}
	return PhiResult{Phi: res.Phi, Fraction: res.PhiFraction, Misses: res.Misses}, nil
}

// L2Worth prices a second-level cache in L1 hit ratio (see
// core.PriceL2 and docs/DERIVATIONS.md §9).
type L2Worth = core.L2Worth

// PriceL2 returns the increase in L1 hit ratio that would match adding
// an L2 with the given local hit ratio, L2 access time and memory
// line-fill time (both in cycles).
func PriceL2(l1HitRatio, l2LocalHitRatio, tL2, tMem float64) (L2Worth, error) {
	return core.PriceL2(l1HitRatio, l2LocalHitRatio, tL2, tMem)
}

// LevelSpec describes one level of an N-deep hierarchy for the delay
// model: its local hit ratio and access time in cycles.
type LevelSpec = core.LevelSpec

// LevelWorth prices any cache level in equivalent L1 hit ratio; the
// two-level L2Worth is an alias of it.
type LevelWorth = core.LevelWorth

// HierarchyDelay returns the mean memory delay per reference of an
// N-level hierarchy: a reference pays level i's access time where it
// first hits and the tMem line-fill when every level misses. The
// two-level case reduces exactly to the classic
// HR1 + (1−HR1)·(HR2·tL2 + (1−HR2)·tMem).
func HierarchyDelay(levels []LevelSpec, tMem float64) (float64, error) {
	return core.HierarchyDelay(levels, tMem)
}

// PriceLevel returns what level i (0-indexed, i ≥ 1) of the hierarchy
// is worth in equivalent L1 hit ratio — the paper's feature-pricing
// currency applied to whole cache levels.
func PriceLevel(levels []LevelSpec, i int, tMem float64) (LevelWorth, error) {
	return core.PriceLevel(levels, i, tMem)
}

// LineSizeConfig describes an optimal-line-size question: the cache,
// the bus, the memory timing of the paper's Figure 6 subcaptions
// (latency + per-byte transfer time), and the candidate line sizes
// (ascending; the first is the comparison base).
type LineSizeConfig struct {
	CacheSize int     // bytes
	BusWidth  int     // bytes
	LatencyNS float64 // constant memory access latency
	NSPerByte float64 // transfer time per byte
	Lines     []int   // candidates, ascending
}

// OptimalLineSize selects the line size minimizing mean memory delay
// per reference at normalized bus speed beta, using the calibrated
// design-target miss-ratio surface. By the Eq. (19) identity this is
// simultaneously Smith's choice and the paper's (docs/DERIVATIONS.md
// §8).
func OptimalLineSize(cfg LineSizeConfig, beta float64) (int, error) {
	return linesize.SmithOptimal(missratio.DefaultModel(), linesize.Config{
		CacheSize: cfg.CacheSize,
		BusWidth:  cfg.BusWidth,
		LatencyNS: cfg.LatencyNS,
		NSPerByte: cfg.NSPerByte,
		Lines:     cfg.Lines,
	}, beta)
}
