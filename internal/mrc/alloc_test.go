//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// handed, so allocation counts through the pool mean something only
// without it.

package mrc

import (
	"runtime/debug"
	"testing"

	"tradeoff/internal/trace"
)

// TestProfileRefsAllocatesOnlyTheCurve pins that a warmed ProfileRefs
// allocates only the Curve it returns and its three slices: the stack
// tree and the histogram come from the pool at the capacity earlier
// passes grew. GC is off, so the pool keeps its index between runs.
func TestProfileRefsAllocatesOnlyTheCurve(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	refs := trace.Collect(trace.MustWorkload(trace.Doduc, 1), 20_000)
	for i := 0; i < 3; i++ {
		if _, err := ProfileRefs(refs, 16); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ProfileRefs(refs, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("a warmed ProfileRefs allocates %v times, want 4: the Curve, its distances, weights and cumulative weights", allocs)
	}
}
