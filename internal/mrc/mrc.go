// Package mrc builds miss-ratio curves from a single trace pass.
//
// Simulating a design-space grid cache by cache replays the whole
// trace once per (cache size, line size) point, so a grid costs
// O(points × refs). This package replaces that re-simulation
// with reuse-distance profiling: Mattson's stack algorithm (Mattson,
// Gecsei, Slutz & Traiger, 1970) observes that under LRU a reference
// hits in every cache of at least d+1 lines, where d is the number of
// distinct blocks touched since the previous access to the same block
// (its stack distance). One pass over the trace therefore yields a
// Curve answering HitRatio(cacheSize) for *all* cache sizes at once,
// and a grid costs O(refs + points).
//
// Three layers:
//
//   - Profiler measures exact stack distances. The classic algorithm
//     walks an LRU stack (O(refs × stackDepth)); here an
//     order-statistic index answers each distance in
//     O(log uniqueBlocks), so one pass is O(refs × log uniqueBlocks):
//     an open-addressing table finds a block's last access slot, and a
//     Fenwick tree over 64-slot occupancy words counts the live slots
//     after it. Slots are renumbered in place when they run out, so
//     the index stays O(uniqueBlocks) in memory and allocates only
//     when it doubles.
//
//   - SampledProfiler approximates the same curve by SHARDS-style
//     spatial hashing (Waldspurger et al., FAST '15): only blocks
//     whose hash falls under a threshold are tracked, distances and
//     counts are rescaled by the sampling rate, and a fixed tracking
//     budget adaptively lowers the threshold, bounding memory however
//     large the trace's working set is.
//
//   - Curve evaluates the resulting histogram: HitRatio gives the
//     exact fully-associative LRU hit ratio (bit-for-bit what
//     internal/cache measures for Assoc 0, LRU, write-allocate);
//     HitRatioAssoc applies Smith's binomial set-mapping correction so
//     the same histogram approximates direct-mapped and set-associative
//     geometries within a documented tolerance (DESIGN.md §5.6).
//
// The sweep engine consumes curves through CurveCache, which memoizes
// one profiled Curve per (workload, line size) spec on an engine.Memo
// and opens one "mrc_pass" span per actual pass, so a -trace export
// shows exactly how many passes a sweep paid for. A miss profiles a
// trace the caller hands over lazily, so one generated trace serves
// every line size a request misses.
package mrc

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Curve is a miss-ratio curve: the reuse-distance histogram of one
// trace at one block (line) size, reduced to cumulative form so hit
// ratios for arbitrary cache sizes are O(log distances) lookups.
//
// Distances are in blocks. For sampled curves the histogram holds
// rescaled estimates and Rate records the final sampling rate; for
// exact curves every weight is an integer count and Rate is 1.
type Curve struct {
	LineSize int     // block size in bytes the trace was profiled at
	Refs     uint64  // references profiled (sampled or not)
	Blocks   int     // distinct blocks tracked when profiling ended
	Sampled  bool    // built by a SampledProfiler
	Rate     float64 // final sampling rate T/P (1 for exact curves)

	dist   []uint64  // ascending stack distances with non-zero weight
	weight []float64 // estimated reference count at each distance
	cum    []float64 // cum[i] = weight[0] + … + weight[i]
	coldW  float64   // weighted cold (first-touch) references
	totalW float64   // weighted total references (== float64(Refs))
}

// newCurve reduces a histogram, given as ascending distances and
// their weights, to cumulative form. The curve keeps both slices.
func newCurve(lineSize int, refs uint64, blocks int, sampled bool, rate float64,
	dist []uint64, weight []float64, cold float64) *Curve {
	c := &Curve{
		LineSize: lineSize, Refs: refs, Blocks: blocks,
		Sampled: sampled, Rate: rate, coldW: cold,
		dist: dist, weight: weight, cum: make([]float64, len(dist)),
	}
	sum := 0.0
	for i, w := range weight {
		sum += w
		c.cum[i] = sum
	}
	c.totalW = sum + cold
	return c
}

// sortHist splits a distance→weight map into newCurve's ascending
// form.
func sortHist(hist map[uint64]float64) ([]uint64, []float64) {
	dist := make([]uint64, 0, len(hist))
	for d := range hist {
		dist = append(dist, d)
	}
	slices.Sort(dist)
	weight := make([]float64, len(dist))
	for i, d := range dist {
		weight[i] = hist[d]
	}
	return dist, weight
}

// rescale multiplies every weight by f — the SHARDS_adj correction
// that pins the estimated reference total to the observed one.
func (c *Curve) rescale(f float64) {
	for i := range c.weight {
		c.weight[i] *= f
		c.cum[i] *= f
	}
	c.coldW *= f
	c.totalW *= f
}

// hitWeight returns the weighted count of references with stack
// distance strictly below lines — the references that hit in a
// fully-associative LRU cache of that many lines.
func (c *Curve) hitWeight(lines int) float64 {
	if lines <= 0 {
		return 0
	}
	i := sort.Search(len(c.dist), func(i int) bool { return c.dist[i] >= uint64(lines) })
	if i == 0 {
		return 0
	}
	return c.cum[i-1]
}

// HitRatio returns the hit ratio of a fully-associative LRU cache of
// cacheSize bytes. For exact curves this is bit-for-bit the ratio
// internal/cache measures for the same trace (Assoc 0, LRU,
// write-allocate): hit counts are integers and the final division is
// the same float64(hits)/float64(refs) the simulator performs. An
// empty curve returns 0, matching cache.Stats.HitRatio.
//
// Edge-case contract (pinned by TestCurveEdgeCases, honored by
// analytic curves too): cacheSize is floored to whole lines, so a
// size that is not a multiple of LineSize prices the largest
// realizable cache below it — cacheSize < LineSize holds zero lines
// and returns 0. The simulator rejects such geometries outright
// (cache.Config.Validate wants power-of-two Size ≥ LineSize); the
// curve generalizes them instead of erroring so sweeps can price
// arbitrary byte budgets, and agrees with the simulator exactly on
// every geometry the simulator accepts.
func (c *Curve) HitRatio(cacheSize int) float64 {
	if c.Refs == 0 || c.totalW <= 0 {
		return 0
	}
	return c.hitWeight(cacheSize/c.LineSize) / c.totalW
}

// MissRatio returns 1 − HitRatio for a non-empty curve, else 0.
func (c *Curve) MissRatio(cacheSize int) float64 {
	if c.Refs == 0 {
		return 0
	}
	return 1 - c.HitRatio(cacheSize)
}

// HitRatioAssoc returns the estimated hit ratio of a set-associative
// LRU cache of cacheSize bytes with assoc ways (0 = fully
// associative). It applies Smith's binomial set-mapping model (Smith,
// 1978): a reference at stack distance d hits an A-way cache of S
// sets when fewer than A of its d intervening distinct blocks map to
// the same set, each independently with probability 1/S. The model is
// exact for one set and approximate otherwise; DESIGN.md §5.6 states
// the tolerance the tests pin.
//
// Edge-case contract (pinned by TestCurveEdgeCases): assoc ≥ lines
// degenerates to the fully-associative HitRatio (the simulator
// rejects assoc > lines; the curve clamps). When assoc does not
// divide lines — another geometry the simulator rejects — the curve
// prices the largest realizable cache: S = floor(lines/assoc) sets,
// identical to evaluating a cache of S·assoc lines.
func (c *Curve) HitRatioAssoc(cacheSize, assoc int) float64 {
	if c.Refs == 0 || c.totalW <= 0 {
		return 0
	}
	lines := cacheSize / c.LineSize
	if assoc <= 0 || lines <= assoc {
		return c.HitRatio(cacheSize)
	}
	sets := lines / assoc
	if sets <= 1 {
		return c.HitRatio(cacheSize)
	}
	p := 1 / float64(sets)
	logMiss := math.Log1p(-p)
	hits := 0.0
	for i, d := range c.dist {
		hits += c.weight[i] * hitProb(d, assoc, p, logMiss)
	}
	return hits / c.totalW
}

// hitProb is P[Binomial(d, p) ≤ assoc−1]: the probability that fewer
// than assoc of the d intervening distinct blocks land in the
// reference's set. logMiss is log(1−p), which the caller computes
// once per curve evaluation. Terms are accumulated iteratively from
// (1−p)^d — stable for the p ≤ 1/2 this package produces (sets ≥ 2).
func hitProb(d uint64, assoc int, p, logMiss float64) float64 {
	if d < uint64(assoc) {
		return 1
	}
	term := math.Exp(float64(d) * logMiss)
	sum := term
	for j := 1; j < assoc; j++ {
		term *= (float64(d) - float64(j-1)) / float64(j) * p / (1 - p)
		sum += term
	}
	return math.Min(1, sum)
}

// ColdMisses returns the (weighted) count of first-touch references —
// misses at every cache size.
func (c *Curve) ColdMisses() float64 { return c.coldW }

// MaxDistance returns the largest observed stack distance in blocks,
// or 0 when every reference was cold. Caches larger than
// (MaxDistance+1) lines cannot miss except compulsorily.
func (c *Curve) MaxDistance() uint64 {
	if len(c.dist) == 0 {
		return 0
	}
	return c.dist[len(c.dist)-1]
}

// MemoryBytes estimates the curve's resident size for byte-bounded
// memoization (mrc.CurveCache and model.Cache both size entries
// with it).
func (c *Curve) MemoryBytes() int64 {
	return int64(len(c.dist))*24 + 128
}

// validLineSize reports lineSize is a positive power of two.
func validLineSize(lineSize int) error {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return fmt.Errorf("mrc: line size %d is not a positive power of two", lineSize)
	}
	return nil
}

// log2 returns floor(log2(v)) for v ≥ 1.
func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
