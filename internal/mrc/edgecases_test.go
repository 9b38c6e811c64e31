package mrc

import (
	"math"
	"testing"

	"tradeoff/internal/trace"
)

// edgeCurve profiles a real workload so the edge-case pins exercise a
// histogram with realistic distance spread, not a toy.
func edgeCurve(t *testing.T) *Curve {
	t.Helper()
	c, err := ProfileRefs(trace.Collect(trace.MustWorkload(trace.Ear, 1994), 20_000), 32)
	if err != nil {
		t.Fatalf("ProfileRefs: %v", err)
	}
	return c
}

// TestCurveEdgeCases pins the integer edge-case contract of
// Curve.HitRatio/HitRatioAssoc stated in their doc comments. These
// are the geometries the simulator rejects outright
// (cache.Config.Validate), so the curve's generalization is the only
// defined semantics — and the analytic model tier inherits it by
// construction (model curves are *mrc.Curve too).
func TestCurveEdgeCases(t *testing.T) {
	c := edgeCurve(t)
	const L = 32 // profiled line size

	t.Run("below one line is all misses", func(t *testing.T) {
		for _, size := range []int{0, 1, L - 1, -L} {
			if hr := c.HitRatio(size); hr != 0 {
				t.Errorf("HitRatio(%d) = %v, want 0 (cache holds no whole line)", size, hr)
			}
			if hr := c.HitRatioAssoc(size, 2); hr != 0 {
				t.Errorf("HitRatioAssoc(%d, 2) = %v, want 0", size, hr)
			}
		}
	})

	t.Run("non-multiple sizes floor to whole lines", func(t *testing.T) {
		for _, size := range []int{L + 1, 3*L - 1, 100, 4097, 12*L + L/2} {
			want := c.HitRatio((size / L) * L)
			if got := c.HitRatio(size); got != want {
				t.Errorf("HitRatio(%d) = %v, want %v (= HitRatio(%d))", size, got, want, (size/L)*L)
			}
		}
		// Flooring is monotone: a partial line never raises the ratio.
		if a, b := c.HitRatio(4*L+L-1), c.HitRatio(5*L); a > b {
			t.Errorf("HitRatio(4 lines + partial) = %v > HitRatio(5 lines) = %v", a, b)
		}
	})

	t.Run("assoc at or above lines degenerates to fully associative", func(t *testing.T) {
		for _, tc := range []struct{ lines, assoc int }{
			{4, 4}, {4, 5}, {4, 100}, {1, 2}, {64, 64},
		} {
			size := tc.lines * L
			want := c.HitRatio(size)
			if got := c.HitRatioAssoc(size, tc.assoc); got != want {
				t.Errorf("HitRatioAssoc(%d lines, assoc %d) = %v, want HitRatio = %v",
					tc.lines, tc.assoc, got, want)
			}
		}
	})

	t.Run("non-dividing assoc prices floor(lines/assoc) sets", func(t *testing.T) {
		// 8 lines at 3-way → 2 sets → identical to a 6-line 3-way cache.
		for _, tc := range []struct{ lines, assoc, effLines int }{
			{8, 3, 6}, {16, 5, 15}, {9, 2, 8}, {100, 48, 96},
		} {
			got := c.HitRatioAssoc(tc.lines*L, tc.assoc)
			want := c.HitRatioAssoc(tc.effLines*L, tc.assoc)
			if got != want {
				t.Errorf("HitRatioAssoc(%d lines, %d-way) = %v, want %v (the %d-line cache)",
					tc.lines, tc.assoc, got, want, tc.effLines)
			}
		}
	})

	t.Run("assoc estimates stay near [0, fully associative]", func(t *testing.T) {
		// Smith's correction is not bounded above by the
		// fully-associative ratio: a reference at distance d ≥ lines
		// misses the fully-associative cache by definition, but the
		// binomial still gives it P[Bin(d, 1/S) < A] > 0 of landing in
		// a lucky set. The excess is the binomial tail mass, tiny for
		// realistic histograms; pin it under a named bound instead of
		// pretending monotonicity the model does not have.
		const epsSmithTail = 0.005
		for _, lines := range []int{2, 4, 8, 64, 512} {
			for _, assoc := range []int{1, 2, 3, 4} {
				hr := c.HitRatioAssoc(lines*L, assoc)
				full := c.HitRatio(lines * L)
				if hr < 0 || hr > full+epsSmithTail {
					t.Errorf("HitRatioAssoc(%d lines, %d-way) = %v outside [0, %v+%v]",
						lines, assoc, hr, full, epsSmithTail)
				}
			}
		}
	})
}

// TestCurveEdgeCasesEmpty pins the zero-reference behavior: every
// query answers 0 rather than NaN.
func TestCurveEdgeCasesEmpty(t *testing.T) {
	c, err := ProfileRefs(nil, 32)
	if err != nil {
		t.Fatalf("ProfileRefs(nil): %v", err)
	}
	for _, size := range []int{0, 16, 32, 4096} {
		if hr := c.HitRatio(size); hr != 0 {
			t.Errorf("empty curve HitRatio(%d) = %v, want 0", size, hr)
		}
		if hr := c.HitRatioAssoc(size, 2); hr != 0 {
			t.Errorf("empty curve HitRatioAssoc(%d, 2) = %v, want 0", size, hr)
		}
	}
}

// TestNewAnalyticCurve covers the analytic constructor: domain checks
// and that the resulting curve evaluates the histogram with the same
// semantics as a profiled one.
func TestNewAnalyticCurve(t *testing.T) {
	hist := map[uint64]float64{0: 50, 3: 30}
	c, err := NewAnalyticCurve(32, 100, 20, hist, 20)
	if err != nil {
		t.Fatalf("NewAnalyticCurve: %v", err)
	}
	for _, tc := range []struct {
		size int
		want float64
	}{
		{0, 0},        // below one line
		{31, 0},       // still below one line
		{32, 0.5},     // 1 line: d=0 hits only
		{3 * 32, 0.5}, // 3 lines: d=3 still misses
		{4 * 32, 0.8}, // 4 lines: d=0 and d=3 hit
		{4*32 + 7, 0.8},
		{1 << 20, 0.8}, // cold misses never hit
	} {
		if got := c.HitRatio(tc.size); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("HitRatio(%d) = %v, want %v", tc.size, got, tc.want)
		}
	}
	if got := c.MissRatio(4 * 32); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MissRatio = %v, want 0.2", got)
	}
	if c.ColdMisses() != 20 || c.MaxDistance() != 3 {
		t.Errorf("ColdMisses %v MaxDistance %d, want 20 and 3", c.ColdMisses(), c.MaxDistance())
	}

	for _, tc := range []struct {
		name string
		line int
		refs uint64
		hist map[uint64]float64
		cold float64
	}{
		{"line size not power of two", 48, 100, hist, 0},
		{"line size zero", 0, 100, hist, 0},
		{"zero refs", 32, 0, hist, 0},
		{"negative weight", 32, 100, map[uint64]float64{1: -4}, 10},
		{"NaN weight", 32, 100, map[uint64]float64{1: math.NaN()}, 10},
		{"infinite cold", 32, 100, hist, math.Inf(1)},
		{"negative cold", 32, 100, hist, -1},
		{"empty histogram and no cold", 32, 100, nil, 0},
	} {
		if _, err := NewAnalyticCurve(tc.line, tc.refs, 10, tc.hist, tc.cold); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}
