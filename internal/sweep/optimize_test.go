package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tradeoff/internal/obs"
)

func optCfg() OptimizeConfig {
	return OptimizeConfig{
		Config: Config{
			CacheKB: []int{4, 8}, LineBytes: []int{16, 32}, BusBits: []int{32, 64},
			LatencyNS: 360, TransferNS: 60, CPUNS: 30,
			Levels: []LevelAxes{
				{CacheKB: []int{32, 64}, LatencyNS: 90},
				{CacheKB: []int{256}, LatencyNS: 180},
			},
		},
		AreaBudget: 2e7,
	}
}

func TestOptimizeSearchesAllDepths(t *testing.T) {
	res, err := Optimize(context.Background(), optCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != len(res.Designs) || res.Total < res.Feasible {
		t.Fatalf("inconsistent counts: %+v", res)
	}
	depths := map[int]bool{}
	pareto := 0
	for _, d := range res.Designs {
		depths[len(d.Levels)+1] = true
		if d.Pareto {
			pareto++
		}
		if d.PowerProxy <= 0 {
			t.Fatalf("design without power proxy: %+v", d)
		}
		if d.AreaRBE > 2e7 {
			t.Fatalf("design over the area budget: %+v", d)
		}
	}
	// The generous budget keeps designs from every depth prefix in
	// play: flat, two-level and three-level.
	if !depths[1] || !depths[2] || !depths[3] {
		t.Fatalf("depths searched = %v, want {1,2,3}", depths)
	}
	if pareto == 0 {
		t.Fatal("no Pareto frontier flagged")
	}
}

func TestOptimizeAreaBudgetBinds(t *testing.T) {
	cfg := optCfg()
	loose, err := Optimize(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A budget below any three-level design's area: deep hierarchies
	// must drop out, totals stay the same.
	cfg.AreaBudget = 1e6
	tight, err := Optimize(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Total != loose.Total {
		t.Fatalf("budget changed enumeration: %d vs %d", tight.Total, loose.Total)
	}
	if tight.Feasible >= loose.Feasible {
		t.Fatalf("tight budget kept %d of %d designs", tight.Feasible, loose.Feasible)
	}
	for _, d := range tight.Designs {
		if len(d.Levels) == 2 {
			t.Fatalf("three-level design under a 1e6 rbe budget: %+v", d)
		}
	}
}

func TestOptimizePowerBudgetBinds(t *testing.T) {
	cfg := optCfg()
	loose, err := Optimize(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	minP, maxP := math.Inf(1), 0.0
	for _, d := range loose.Designs {
		minP = math.Min(minP, d.PowerProxy)
		maxP = math.Max(maxP, d.PowerProxy)
	}
	if minP >= maxP {
		t.Fatalf("degenerate power spread [%g, %g]", minP, maxP)
	}
	cfg.PowerBudget = (minP + maxP) / 2
	mid, err := Optimize(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Feasible == 0 || mid.Feasible >= loose.Feasible {
		t.Fatalf("power budget kept %d of %d designs", mid.Feasible, loose.Feasible)
	}
	for _, d := range mid.Designs {
		if d.PowerProxy > cfg.PowerBudget {
			t.Fatalf("design over the power budget: %+v", d)
		}
	}
}

func TestOptimizeMaxLevels(t *testing.T) {
	cfg := optCfg()
	cfg.MaxLevels = 2
	res, err := Optimize(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Designs {
		if len(d.Levels) > 1 {
			t.Fatalf("design deeper than max_levels=2: %+v", d)
		}
	}
}

func TestOptimizeLineModeOptimal(t *testing.T) {
	cfg := optCfg()
	cfg.LineMode = LineModeOptimal
	res, err := Optimize(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := Optimize(context.Background(), optCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total >= enum.Total {
		t.Fatalf("optimal line mode did not shrink the space: %d vs %d", res.Total, enum.Total)
	}
	// One line per (size, bus): no two designs may share (size, bus,
	// depth, deeper levels) with different lines.
	seen := map[string]int{}
	for _, d := range res.Designs {
		key := fmt.Sprintf("%d|%d|%s", d.CacheKB, d.BusBits, levelsCell(d.Levels))
		if prev, ok := seen[key]; ok && prev != d.LineBytes {
			t.Fatalf("two lines (%d, %d) for one (size, bus, levels) choice", prev, d.LineBytes)
		}
		seen[key] = d.LineBytes
	}
	// The chosen line must actually minimize delay among the flat
	// candidates with the same (size, bus).
	for _, d := range res.Designs {
		if len(d.Levels) > 0 {
			continue
		}
		for _, e := range enum.Designs {
			if len(e.Levels) == 0 && e.CacheKB == d.CacheKB && e.BusBits == d.BusBits && e.Delay < d.Delay-1e-12 {
				t.Fatalf("line %d beaten by line %d at %dK/%d-bit", d.LineBytes, e.LineBytes, d.CacheKB, d.BusBits)
			}
		}
	}
}

// TestOptimizeSpans pins the search's trace shape: it prices through
// the sweep's drivers under its own span name, one optimize_point per
// distinct flat (cache_kb, line) geometry and one per deeper design,
// and opens no sweep_point span, so per-sweep span counts stay sweeps'.
func TestOptimizeSpans(t *testing.T) {
	tracer := obs.NewTracer()
	res, err := Optimize(obs.WithTracer(context.Background(), tracer), optCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(tracer.JSON(), &events); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, ev := range events {
		spans[ev.Name]++
	}
	// 2 sizes × 2 lines price the 8 flat designs; 32 designs are deeper.
	if res.Total != 40 || spans["optimize_point"] != 4+32 || spans["sweep_point"] != 0 {
		t.Fatalf("%d designs, spans %v: want 40 designs, 36 optimize_point and no sweep_point", res.Total, spans)
	}
}

func TestOptimizeValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*OptimizeConfig)
	}{
		{"missing area budget", func(c *OptimizeConfig) { c.AreaBudget = 0 }},
		{"negative area budget", func(c *OptimizeConfig) { c.AreaBudget = -1e6 }},
		{"negative power budget", func(c *OptimizeConfig) { c.PowerBudget = -1 }},
		{"power budget -5", func(c *OptimizeConfig) { c.PowerBudget = -5 }},
		{"bad line mode", func(c *OptimizeConfig) { c.LineMode = "best" }},
		{"bad max levels", func(c *OptimizeConfig) { c.MaxLevels = -2 }},
		{"max levels -1", func(c *OptimizeConfig) { c.MaxLevels = -1 }},
		{"bad inner config", func(c *OptimizeConfig) { c.CacheKB = nil }},
	} {
		cfg := optCfg()
		tc.mutate(&cfg)
		cfg.SetDefaults()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestOptimizeCheckLimits(t *testing.T) {
	cfg := optCfg()
	cfg.SetDefaults()
	// Depth sums: flat 8 + two-level 8·2 + three-level 8·2·1 = 40.
	if err := cfg.CheckLimits(Limits{MaxPoints: 40}); err != nil {
		t.Fatalf("40-point space failed a 40-point limit: %v", err)
	}
	if err := cfg.CheckLimits(Limits{MaxPoints: 39}); err == nil {
		t.Fatal("40-point space passed a 39-point limit")
	}
	if err := cfg.CheckLimits(Limits{MaxCacheKB: 128}); err == nil {
		t.Fatal("256 KiB level passed a 128 KiB limit")
	}
}

func TestOptimizeParseAndCanonical(t *testing.T) {
	cfg, err := ParseOptimizeConfig([]byte(`{
		"cache_kb": [4, 8], "line_bytes": [32], "bus_bits": [64],
		"latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
		"levels": [{"cache_kb": [64], "latency_ns": 90}],
		"area_budget": 5e6
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxLevels != 2 || cfg.LineMode != LineModeEnumerate {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	a, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	spelled := cfg
	spelled.LineMode = LineModeEnumerate
	b, err := spelled.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical keys differ:\n%s\n%s", a, b)
	}
	if _, err := ParseOptimizeConfig([]byte(`{"cache_kb": [4]}`)); err == nil {
		t.Fatal("invalid optimize config accepted")
	}
}

func TestOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := optCfg()
	cfg.HitSource = "sim:ear"
	cfg.SimRefs = 200_000
	start := time.Now()
	if _, err := Optimize(ctx, cfg, 0); err == nil {
		t.Fatal("cancelled optimize returned no error")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled optimize still took %v", took)
	}
}

func TestOptimizeCSV(t *testing.T) {
	res, err := Optimize(context.Background(), optCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOptimizeCSV(&buf, res.Designs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "cache_kb,line_bytes,bus_bits,levels,hit_ratio,global_hit_ratio,hit_source,delay_per_ref,area_rbe,pins,power_proxy,pareto" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != len(res.Designs)+1 {
		t.Fatalf("%d rows for %d designs", len(lines)-1, len(res.Designs))
	}
}
