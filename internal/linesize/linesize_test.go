package linesize

import (
	"math"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/missratio"
	"tradeoff/internal/trace"
)

// figure6Configs returns the four design points of Figure 6 with the
// candidate lines the paper plots (16..128 plus an 8-byte base).
func figure6Configs() []Config {
	lines := []int{8, 16, 32, 64, 128}
	return []Config{
		{CacheSize: 16 << 10, BusWidth: 4, LatencyNS: 360, NSPerByte: 15, Lines: lines},
		{CacheSize: 16 << 10, BusWidth: 8, LatencyNS: 160, NSPerByte: 15, Lines: lines},
		{CacheSize: 16 << 10, BusWidth: 8, LatencyNS: 600, NSPerByte: 4, Lines: lines},
		{CacheSize: 8 << 10, BusWidth: 8, LatencyNS: 360, NSPerByte: 15, Lines: lines},
	}
}

func TestConfigValidate(t *testing.T) {
	good := figure6Configs()[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{CacheSize: 0, BusWidth: 4, LatencyNS: 1, NSPerByte: 1, Lines: []int{8, 16}},
		{CacheSize: 1024, BusWidth: 0, LatencyNS: 1, NSPerByte: 1, Lines: []int{8, 16}},
		{CacheSize: 1024, BusWidth: 4, LatencyNS: 0, NSPerByte: 1, Lines: []int{8, 16}},
		{CacheSize: 1024, BusWidth: 4, LatencyNS: 1, NSPerByte: 1, Lines: []int{8}},
		{CacheSize: 1024, BusWidth: 4, LatencyNS: 1, NSPerByte: 1, Lines: []int{16, 8}},
		{CacheSize: 1024, BusWidth: 8, LatencyNS: 1, NSPerByte: 1, Lines: []int{4, 16}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLambdaMatchesSubcaptions(t *testing.T) {
	// The paper's subcaption constants: (d) "c = 6+1" at β = 2 means
	// λ·2 = 6, λ = 3; (b) "c = 4+1" at β = 3 means λ = 4/3.
	cfgs := figure6Configs()
	if got := cfgs[3].Lambda(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("(d) λ = %g, want 3", got)
	}
	if got := cfgs[1].Lambda(); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("(b) λ = %g, want 4/3", got)
	}
	if got := cfgs[0].CAt(2); math.Abs(got-13) > 1e-12 {
		t.Fatalf("(a) c at β=2 = %g, want 1+6·2 = 13", got)
	}
}

func TestSmithOptimalMatchesPaperQuotes(t *testing.T) {
	// Figure 6 subcaptions: the line Smith's criterion picks at the
	// quoted design beta for each config.
	m := missratio.DefaultModel()
	cfgs := figure6Configs()
	cases := []struct {
		cfg  Config
		beta float64
		want []int
	}{
		{cfgs[0], 2, []int{32}},
		{cfgs[1], 3, []int{16}},
		{cfgs[2], 1, []int{64, 128}},
		{cfgs[3], 2, []int{32}},
	}
	for i, tc := range cases {
		got, err := SmithOptimal(m, tc.cfg, tc.beta)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, w := range tc.want {
			ok = ok || got == w
		}
		if !ok {
			t.Errorf("config %d: Smith optimal %d, want one of %v", i, got, tc.want)
		}
	}
}

func TestEq19MatchesSmithEverywhere(t *testing.T) {
	// §5.4.2's validation: "The optimal line sizes determined by
	// Eq. (19) exactly match with those of Smith's work" — across all
	// four configs and the full β range of Figure 6.
	m := missratio.DefaultModel()
	for i, cfg := range figure6Configs() {
		for beta := 0.5; beta <= 10; beta += 0.5 {
			smith, err := SmithOptimal(m, cfg, beta)
			if err != nil {
				t.Fatal(err)
			}
			eq19, err := Eq19Optimal(m, cfg, beta)
			if err != nil {
				t.Fatal(err)
			}
			if smith != eq19 {
				t.Fatalf("config %d β=%g: Smith picks %d, Eq. 19 picks %d", i, beta, smith, eq19)
			}
		}
	}
}

func TestMeanDelayOptimalAgreesWithSmith(t *testing.T) {
	// Eq. (15) vs Eq. (16): same optimum because hit cycles are equal.
	m := missratio.DefaultModel()
	for i, cfg := range figure6Configs() {
		for beta := 1.0; beta <= 10; beta += 1 {
			a, err := SmithOptimal(m, cfg, beta)
			if err != nil {
				t.Fatal(err)
			}
			b, err := MeanDelayOptimal(m, cfg, beta)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("config %d β=%g: Smith %d != mean-delay %d", i, beta, a, b)
			}
		}
	}
}

func TestEq19MatchesSmithOnSimulatedTable(t *testing.T) {
	// The validation must also hold on simulator-measured miss ratios,
	// not just the parametric surface.
	refs := trace.Collect(trace.MustProgram(trace.Hydro2D, 21), 150000)
	tab := missratio.NewTable()
	for _, ls := range []int{8, 16, 32, 64, 128} {
		c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: ls, Assoc: 2})
		p := cache.Measure(c, refs)
		tab.Set(8<<10, ls, 1-p.HitRatio)
	}
	cfg := Config{CacheSize: 8 << 10, BusWidth: 8, LatencyNS: 360, NSPerByte: 15, Lines: []int{8, 16, 32, 64, 128}}
	for beta := 1.0; beta <= 8; beta++ {
		smith, err := SmithOptimal(tab, cfg, beta)
		if err != nil {
			t.Fatal(err)
		}
		eq19, err := Eq19Optimal(tab, cfg, beta)
		if err != nil {
			t.Fatal(err)
		}
		if smith != eq19 {
			t.Fatalf("simulated β=%g: Smith %d != Eq19 %d", beta, smith, eq19)
		}
	}
}

func TestReducedDelaysBaseIsZero(t *testing.T) {
	m := missratio.DefaultModel()
	cfg := figure6Configs()[0]
	pts, err := ReducedDelays(m, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cfg.Lines) {
		t.Fatalf("%d points, want %d", len(pts), len(cfg.Lines))
	}
	if pts[0].Line != 8 || pts[0].Reduced != 0 {
		t.Fatalf("base point %+v, want line 8 with zero reduction", pts[0])
	}
}

func TestUsefulBusSpeeds(t *testing.T) {
	// For config (c) — long latency, cheap transfer — the 64-byte line
	// must be beneficial across typical bus speeds; for a line that
	// pollutes (128 B in the small 8K cache of config (d)) the range
	// must be narrower than for 32 B.
	m := missratio.DefaultModel()
	betas := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	useful64, err := UsefulBusSpeeds(m, figure6Configs()[2], 64, betas)
	if err != nil {
		t.Fatal(err)
	}
	if len(useful64) != len(betas) {
		t.Fatalf("64B useful at %d/%d speeds in config (c)", len(useful64), len(betas))
	}
	useful32, err := UsefulBusSpeeds(m, figure6Configs()[3], 32, betas)
	if err != nil {
		t.Fatal(err)
	}
	useful128, err := UsefulBusSpeeds(m, figure6Configs()[3], 128, betas)
	if err != nil {
		t.Fatal(err)
	}
	if len(useful128) > len(useful32) {
		t.Fatalf("128B useful at %d speeds but 32B at %d in the 8K cache", len(useful128), len(useful32))
	}
}

func TestSelectionRejectsBadConfig(t *testing.T) {
	m := missratio.DefaultModel()
	bad := Config{CacheSize: 0, BusWidth: 4, LatencyNS: 1, NSPerByte: 1, Lines: []int{8, 16}}
	if _, err := SmithOptimal(m, bad, 1); err == nil {
		t.Fatal("SmithOptimal accepted bad config")
	}
	if _, err := MeanDelayOptimal(m, bad, 1); err == nil {
		t.Fatal("MeanDelayOptimal accepted bad config")
	}
	if _, err := ReducedDelays(m, bad, 1); err == nil {
		t.Fatal("ReducedDelays accepted bad config")
	}
	if _, err := UsefulBusSpeeds(m, bad, 16, []float64{1}); err == nil {
		t.Fatal("UsefulBusSpeeds accepted bad config")
	}
}

// nanSurface is a miss-ratio surface with no usable value anywhere.
type nanSurface struct{}

func (nanSurface) MissRatio(int, int) float64 { return math.NaN() }

// TestSelectionRejectsNonFiniteObjectives pins that no selector
// returns a line outside the candidates: when every objective is +Inf
// (a 1e308 ns latency over a 1e-300 ns/B bus overflows c) or NaN,
// every selector fails instead of answering line 0 or the base line.
func TestSelectionRejectsNonFiniteObjectives(t *testing.T) {
	overflow := Config{CacheSize: 8 << 10, BusWidth: 8, LatencyNS: 1e308, NSPerByte: 1e-300, Lines: []int{16, 32, 64}}
	nan := figure6Configs()[0]
	for _, c := range []struct {
		name string
		s    missratio.Surface
		cfg  Config
	}{
		{"overflow", missratio.DefaultModel(), overflow},
		{"NaN surface", nanSurface{}, nan},
	} {
		if l, err := SmithOptimal(c.s, c.cfg, 2); err == nil {
			t.Errorf("%s: SmithOptimal = %d, <nil>; want an error", c.name, l)
		}
		if l, err := MeanDelayOptimal(c.s, c.cfg, 2); err == nil {
			t.Errorf("%s: MeanDelayOptimal = %d, <nil>; want an error", c.name, l)
		}
		if l, err := Eq19Optimal(c.s, c.cfg, 2); err == nil {
			t.Errorf("%s: Eq19Optimal = %d, <nil>; want an error", c.name, l)
		}
	}
}
