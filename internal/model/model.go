// Package model is the analytic tier of the hit-ratio stack: it maps
// a named workload (internal/trace) plus its parameters to a
// miss-ratio curve in closed form, with no trace pass at all.
//
// The exact tier (internal/mrc) profiles reuse distances from the
// generated references — O(refs · log blocks) per (workload, line
// size). But the workloads are not arbitrary traces: they are
// parameterized loop nests, stencils, working sets, pointer chases
// and Zipf-popularity streams whose reuse-distance *distributions*
// follow from the parameters, in the spirit of Gysi et al.'s
// analytical model of fully associative caches (polyhedral reuse
// counting for regular loops) and Che's approximation for
// independent-reference streams. This package derives each
// component's stack-distance histogram from trace.Spec — the same
// structs the generators run with — blends components through their
// working-set functions to account for Mix interleaving, and wraps
// the result in an *mrc.Curve via mrc.NewAnalyticCurve. Downstream
// consumers (sweep.RunCaches, /v1/sweep, /v1/stall) therefore price
// designs from analytic curves through exactly the same
// HitRatio/HitRatioAssoc surface as exact curves, in microseconds
// instead of milliseconds.
//
// Every estimate carries a committed error budget: ErrorBound returns
// the per-workload maximum absolute hit-ratio error vs. the exact MRC
// tier, pinned by the cross-validation harness in xval.go (CI) and
// re-measured continuously by the service's rotating validation loop.
// DESIGN.md §5.8 derives the closed forms per generator family.
package model

import (
	"fmt"
	"math"

	"tradeoff/internal/mrc"
	"tradeoff/internal/trace"
)

// Spec names one analytic curve: a covered workload, the seed and
// reference count the estimate models (matching the exact tier's
// trace), and the line size in bytes.
type Spec struct {
	Workload string
	Seed     uint64
	Refs     int
	LineSize int
}

// Validate reports specs outside the model's domain.
func (s Spec) Validate() error {
	if unknown := trace.ValidWorkloads([]string{s.Workload}); len(unknown) > 0 {
		return fmt.Errorf("model: workload %q is not covered (covered: %v)", s.Workload, trace.Workloads())
	}
	if s.Refs <= 0 {
		return fmt.Errorf("model: refs = %d, want > 0", s.Refs)
	}
	if s.LineSize <= 0 || s.LineSize&(s.LineSize-1) != 0 {
		return fmt.Errorf("model: line size %d is not a positive power of two", s.LineSize)
	}
	return nil
}

// key is the memoization key for Cache.
func (s Spec) key() string {
	return fmt.Sprintf("%s|%d|%d|%d", s.Workload, s.Seed, s.Refs, s.LineSize)
}

// entry is one mass point of a component's stack-distance histogram,
// before blending: d is the mean reuse distance in lines counting
// only this component's lines, gap the mean number of *component*
// references between the two touches (the blend inflates d by the
// lines other components touch during that gap), and w the estimated
// reference count.
type entry struct {
	d   float64
	gap float64
	w   float64
}

// compModel is one primitive generator's analytic profile at a given
// line size and reference share.
type compModel struct {
	entries []entry
	cold    float64 // first-touch references (== estimated distinct lines)
	// ws is the working-set function: expected distinct lines this
	// component touches in m consecutive references of its own.
	// Blending uses it to price how much a gap of k own-references
	// dilates when other components' bursts interleave.
	ws func(m float64) float64
}

// buildComponent dispatches to the per-generator derivations in
// components.go / zipf.go. n is the component's reference share.
func buildComponent(c trace.Component, lineSize int, n float64) (compModel, error) {
	switch c.Kind {
	case trace.KindSequential:
		return seqModel(*c.Seq, lineSize, n), nil
	case trace.KindStencil2D:
		return stenModel(*c.Sten, lineSize, n), nil
	case trace.KindWorkingSet:
		return wsModel(*c.WS, lineSize, n), nil
	case trace.KindPointerChase:
		return pcModel(*c.PC, lineSize, n), nil
	case trace.KindZipf:
		return zipfModel(*c.ZipfC, lineSize, n), nil
	default:
		return compModel{}, fmt.Errorf("model: no closed form for component kind %q", c.Kind)
	}
}

// CurveFor builds the analytic miss-ratio curve for spec. The
// returned curve is a plain *mrc.Curve: HitRatio, HitRatioAssoc
// (Smith set-mapping correction) and the integer edge-case contract
// all behave exactly as for profiled curves.
func CurveFor(spec Spec) (*mrc.Curve, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ts, err := trace.SpecFor(spec.Workload, spec.Seed)
	if err != nil {
		return nil, err
	}
	n := float64(spec.Refs)

	wsum := 0.0
	for _, c := range ts.Components {
		wsum += c.Weight
	}
	comps := make([]compModel, len(ts.Components))
	weights := make([]float64, len(ts.Components))
	for i, c := range ts.Components {
		weights[i] = c.Weight / wsum
		comps[i], err = buildComponent(c, spec.LineSize, n*weights[i])
		if err != nil {
			return nil, err
		}
	}

	hist := make(map[uint64]float64, 256)
	cold := 0.0
	burst := float64(ts.Burst)
	for i, cm := range comps {
		cold += cm.cold
		for _, e := range cm.entries {
			if e.w <= 0 {
				continue
			}
			// Blend: while this component waits e.gap of its own
			// references, every other component j interleaves about
			// e.gap·w_j/w_i references of its own, pushing W_j(·)
			// distinct foreign lines between the two touches. Gaps
			// shorter than a Mix burst usually complete inside the
			// burst: only a gap/burst fraction crosses a burst
			// boundary and pays the foreign working set at all.
			d := e.d
			for j, other := range comps {
				if j == i {
					continue
				}
				cross := e.gap * weights[j] / weights[i]
				if burst > 1 && e.gap < burst {
					d += (e.gap / burst) * other.ws(burst*weights[j]/weights[i])
				} else {
					d += other.ws(cross)
				}
			}
			hist[uint64(math.Round(d))] += e.w
		}
	}
	blocks := int(math.Round(cold))
	return mrc.NewAnalyticCurve(spec.LineSize, uint64(spec.Refs), blocks, hist, cold)
}

// addUniform appends a histogram mass of total weight w spread
// uniformly over stack distances [0, U): exact entries for the first
// few lines (where small caches live) and geometric buckets beyond,
// so a 16K-line working set costs ~100 entries instead of 16K. gap
// maps a distance to the mean component-references between touches.
func addUniform(entries []entry, U, w float64, gap func(d float64) float64) []entry {
	if U < 1 || w <= 0 {
		return entries
	}
	per := w / U
	exact := math.Min(U, 64)
	for d := 0.0; d < exact; d++ {
		entries = append(entries, entry{d: d, gap: gap(d), w: per})
	}
	lo := exact
	for lo < U {
		hi := math.Min(U, math.Max(lo+1, math.Ceil(lo*1.09)))
		mid := (lo + hi - 1) / 2
		entries = append(entries, entry{d: mid, gap: gap(mid), w: per * (hi - lo)})
		lo = hi
	}
	return entries
}
