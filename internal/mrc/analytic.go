package mrc

import (
	"fmt"
	"math"
)

// NewAnalyticCurve builds a Curve directly from a reuse-distance
// histogram computed in closed form (internal/model derives one from
// workload parameters without a trace pass), rather than profiled
// from references. hist maps stack distance (in lines of lineSize
// bytes) to estimated reference count; cold is the estimated
// first-touch (compulsory miss) count. refs is the reference count
// the histogram models and blocks the estimated distinct lines.
//
// The returned curve answers HitRatio/HitRatioAssoc with exactly the
// same evaluation semantics as a profiled curve — integer-floor lines
// computation, Smith set-mapping correction — so analytic and exact
// tiers cannot drift in how a (size, assoc) query is interpreted.
// Rate is 1 and Sampled is false: the weights are model estimates,
// not rescaled samples.
func NewAnalyticCurve(lineSize int, refs uint64, blocks int, hist map[uint64]float64, cold float64) (*Curve, error) {
	if err := validLineSize(lineSize); err != nil {
		return nil, err
	}
	if refs == 0 {
		return nil, fmt.Errorf("mrc: analytic curve models zero references")
	}
	if cold < 0 || math.IsNaN(cold) || math.IsInf(cold, 0) {
		return nil, fmt.Errorf("mrc: analytic cold weight %v, want finite and >= 0", cold)
	}
	total := cold
	for d, w := range hist {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("mrc: analytic weight %v at distance %d, want finite and >= 0", w, d)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("mrc: analytic histogram is empty")
	}
	dist, weight := sortHist(hist)
	return newCurve(lineSize, refs, blocks, false, 1, dist, weight, cold), nil
}
