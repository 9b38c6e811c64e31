package experiments

import (
	"fmt"
	"math"

	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/plot"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

// Example1 reproduces §5.2's Example 1: exchanging cache size for bus
// width with the Short & Levy hit ratios, plus the same exchange
// re-derived from our own cache simulator sweep (the substitution
// cross-check).
func Example1(o Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Example 1: cache size vs bus width equivalence (FS, alpha=0.5, L=32, D=4)",
		Columns: []string{"case", "small cache HR", "bus-doubling is worth", "needed HR", "large cache HR", "equivalent"},
	}
	addCase := func(name string, smallHR, largeHR float64) error {
		eq, err := core.ExampleOne(smallHR, largeHR, 0.5, 32, 4, 10)
		if err != nil {
			return err
		}
		verdict := "no"
		// The paper states the equivalence with rounded hit ratios;
		// accept a half-point tolerance when reporting.
		if eq.LargeHR >= eq.NeededHR-0.005 {
			verdict = "yes (±0.5%)"
		}
		if eq.Satisfied {
			verdict = "yes"
		}
		t.AddRowf(name, eq.SmallHR, eq.DeltaHR, eq.NeededHR, eq.LargeHR, verdict)
		return nil
	}
	// Case 1: 8K + 64-bit ≡ 32K + 32-bit (Short & Levy ratios).
	if err := addCase("8K/64-bit vs 32K/32-bit (Short&Levy)", core.ShortLevyHR8K, core.ShortLevyHR32K); err != nil {
		return nil, err
	}

	arts := []Artifact{{ID: "E9", Name: "example1", Title: t.Title, Table: &t}}

	// Simulator cross-check: sweep cache sizes on the Zipf-reuse
	// general-workload model — whose measured hit ratios land on the
	// Short & Levy curve (≈0.91 at 8K, ≈0.955 at 32K) — and report the
	// cache size whose hit ratio covers what bus doubling is worth.
	sizes := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	refs := trace.Collect(trace.ZipfReuse(trace.ZipfReuseConfig{
		Seed: o.seed(), Base: 0x1000_0000, Lines: 65536, Theta: 1.5, WriteFrac: 0.3,
	}), 2*o.refsPerProgram())
	// Warm each cache on the first half of the trace and measure the
	// second half, so short fast-mode traces are not dominated by
	// compulsory misses.
	warm, measured := refs[:len(refs)/2], refs[len(refs)/2:]
	hrs := make([]float64, len(sizes))
	for i, sz := range sizes {
		c, err := cache.New(cache.Config{Size: sz, LineSize: 32, Assoc: 2})
		if err != nil {
			return nil, err
		}
		for _, r := range warm {
			c.Access(r.Addr, r.Write)
		}
		c.ResetStats()
		hrs[i] = cache.Measure(c, measured).HitRatio
	}
	sim := plot.Table{
		Title:   "Example 1 on simulated hit ratios (Zipf general-workload model): cache size equivalent to doubling the bus",
		Columns: []string{"base size", "base HR", "needed HR", "equivalent size", "equivalent HR"},
	}
	for i, hr := range hrs {
		eq, err := core.ExampleOne(hr, hr, 0.5, 32, 4, 10)
		if err != nil {
			return nil, err
		}
		match := "beyond sweep"
		matchHR := 0.0
		for j := i + 1; j < len(sizes); j++ {
			if hrs[j] >= eq.NeededHR {
				match = fmt.Sprintf("%dK", sizes[j]>>10)
				matchHR = hrs[j]
				break
			}
		}
		sim.AddRowf(fmt.Sprintf("%dK", sizes[i]>>10), hr, eq.NeededHR, match, matchHR)
	}
	arts = append(arts, Artifact{ID: "E9", Name: "example1_simulated", Title: sim.Title, Table: &sim})
	return arts, nil
}

// Ranking reproduces the §5.3 ranking claim: across a wide βm range
// and both line sizes, doubling the bus beats write buffers beats the
// bus-not-locked cache (pipelined memory excluded; it has its own
// crossover, see E11).
func Ranking(o Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Feature ranking by hit ratio traded (base HR 95%, alpha=0.5, D=4, phi=BNL1 measured)",
		Columns: []string{"L", "betaM", "1st", "2nd", "3rd", "consistent with paper"},
	}
	betas := []float64{4, 8, 12, 16, 20}
	if o.Fast {
		betas = []float64{4, 12, 20}
	}
	for _, l := range []float64{8, 32} {
		for _, b := range betas {
			phi, err := MeasurePhi(stall.BNL1, int64(b), int(l), o)
			if err != nil {
				return nil, err
			}
			if phi < 1 {
				phi = 1
			}
			if phi > l/4 {
				phi = l / 4
			}
			ranked, err := core.RankFeatures(0.95, 0.5, l, 4, b, phi, 2)
			if err != nil {
				return nil, err
			}
			// Drop the pipelined memory row for the non-pipelined claim.
			var names []string
			for _, tr := range ranked {
				if tr.Feature == core.FeaturePipelinedMemory {
					continue
				}
				names = append(names, tr.Feature.String())
			}
			consistent := "YES"
			if len(names) != 3 ||
				names[0] != core.FeatureDoubleBus.String() ||
				names[1] != core.FeatureWriteBuffers.String() ||
				names[2] != core.FeaturePartialStall.String() {
				consistent = "NO"
			}
			t.AddRowf(l, b, names[0], names[1], names[2], consistent)
		}
	}
	return []Artifact{{ID: "E10", Name: "ranking", Title: t.Title, Table: &t}}, nil
}

// Crossover reproduces the §5.3/§6 pipelined-memory claim: the memory
// cycle time beyond which pipelining beats bus doubling, for several
// line-to-bus ratios and readiness intervals.
func Crossover(Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Pipelined memory vs doubling bus: crossover memory cycle time (Eq. 9 + Table 3)",
		Columns: []string{"L/D", "q", "crossover betaM", "note"},
	}
	for _, n := range []float64{2, 4, 8, 16} {
		for _, q := range []float64{1, 2, 4} {
			x, err := core.PipelineCrossover(q, n*4, 4)
			if err != nil {
				return nil, err
			}
			note := ""
			if math.IsInf(x, 1) {
				note = "pipelining never overtakes bus doubling (L=2D)"
				t.AddRowf(n, q, "+Inf", note)
				continue
			}
			//lint:ignore floatcmp n and q range over exact small integer literals
			if n == 8 && q == 2 {
				note = "the paper's 'about five or six clock cycles'"
			}
			t.AddRowf(n, q, x, note)
		}
	}
	return []Artifact{{ID: "E11", Name: "crossover", Title: t.Title, Table: &t}}, nil
}

// Limits reproduces the §4.1 limit analysis: the miss-count ratio r of
// bus doubling at the design-limit memory cycle (βm = 2) and in the
// βm → ∞ limit, bracketing the "2HR−1 to 2.5HR−1.5" statement.
func Limits(Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Bus-doubling limit analysis (alpha=0.5): r and the hit ratio mapping HR2 = 1 - r(1-HR1)",
		Columns: []string{"case", "r", "HR1=0.95 -> HR2", "HR1=0.98 -> HR2"},
	}
	for _, c := range []struct {
		name  string
		betaM float64
	}{
		{"design limit betaM=2, L=2D", 2},
		{"large betaM (1e6), L=2D", 1e6},
	} {
		r, err := core.MissRatioOfCaches(core.FeatureSpec{Feature: core.FeatureDoubleBus}, 0.5, 8, 4, c.betaM)
		if err != nil {
			return nil, err
		}
		t.AddRowf(c.name, r, core.EquivalentHitRatio(0.95, r), core.EquivalentHitRatio(0.98, r))
	}
	return []Artifact{{ID: "E12", Name: "limits", Title: t.Title, Table: &t}}, nil
}
