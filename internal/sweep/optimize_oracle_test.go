package sweep

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tradeoff/internal/engine"
	"tradeoff/internal/linesize"
)

// oracleOptimize is the search Optimize replaced, kept as its
// reference: every design point evaluated on its own pool item, and
// line_mode "optimal" choosing each (size, bus) line up front with
// linesize.MeanDelayOptimal over the hit source. Both share the
// pricing blocks (resolveSurface, evaluate, evaluateHierarchy,
// powerProxy, MarkPareto); what differs is the driver and the line
// choice.
func oracleOptimize(ctx context.Context, cfg OptimizeConfig, workers int) (OptimizeResult, error) {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	flatCfg := cfg.Config
	flatCfg.Levels = nil
	surf, err := resolveSurface(ctx, cfg.Config, Caches{}, enumerate(flatCfg))
	if err != nil {
		return OptimizeResult{}, err
	}
	points, err := oraclePoints(ctx, cfg, surf.hit)
	if err != nil {
		return OptimizeResult{}, err
	}
	if len(points) == 0 {
		return OptimizeResult{}, fmt.Errorf("sweep: empty optimize space (every line < 2D, or no monotone hierarchy?)")
	}
	all, err := engine.Map(ctx, points, workers, func(ctx context.Context, p point) (Design, error) {
		var d Design
		var err error
		if len(p.levels) > 0 {
			d, err = evaluateHierarchy(ctx, cfg.Config, surf, p)
		} else {
			var hr float64
			if hr, err = surf.hit(ctx, p.cacheKB<<10, p.line); err == nil {
				d, err = evaluate(cfg.Config, hr, surf.name, p)
			}
		}
		if err != nil {
			return Design{}, err
		}
		d.PowerProxy = powerProxy(d)
		return d, nil
	})
	if err != nil {
		return OptimizeResult{}, err
	}
	feasible := make([]Design, 0, len(all))
	for _, d := range all {
		if d.AreaRBE > cfg.AreaBudget || cfg.PowerBudget > 0 && d.PowerProxy > cfg.PowerBudget {
			continue
		}
		feasible = append(feasible, d)
	}
	MarkPareto(feasible)
	return OptimizeResult{Total: len(all), Feasible: len(feasible), Designs: feasible}, nil
}

// oraclePoints enumerates every depth prefix: depth-major when lines
// are enumerated, and per (size, bus) in axis order, at the line
// oracleLine picks, when they are optimal.
func oraclePoints(ctx context.Context, cfg OptimizeConfig, hit hitRatioFunc) ([]point, error) {
	var points []point
	if cfg.LineMode == LineModeEnumerate {
		for depth := 0; depth < cfg.depth(); depth++ {
			sub := cfg.Config
			sub.Levels = cfg.Levels[:depth]
			points = append(points, enumerate(sub)...)
		}
		return points, nil
	}
	for _, kb := range cfg.CacheKB {
		for _, bus := range cfg.BusBits {
			line, ok, err := oracleLine(ctx, cfg.Config, hit, kb, bus)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			sub := cfg.Config
			sub.CacheKB, sub.LineBytes, sub.BusBits = []int{kb}, []int{line}, []int{bus}
			for depth := 0; depth < cfg.depth(); depth++ {
				sub.Levels = cfg.Levels[:depth]
				points = append(points, enumerate(sub)...)
			}
		}
	}
	return points, nil
}

// oracleLine picks one (size, bus) pair's line among the candidates
// with line >= 2D by linesize.MeanDelayOptimal; ok is false when none
// fits the bus. NSPerByte = TransferNS/D makes linesize's normalized
// timing coincide with the sweep's.
func oracleLine(ctx context.Context, cfg Config, hit hitRatioFunc, kb, busBits int) (int, bool, error) {
	d := busBits / 8
	var candidates []int
	for _, l := range cfg.LineBytes {
		if l >= 2*d {
			candidates = append(candidates, l)
		}
	}
	sort.Ints(candidates)
	switch len(candidates) {
	case 0:
		return 0, false, nil
	case 1:
		return candidates[0], true, nil
	}
	s := &hitSurface{ctx: ctx, hit: hit}
	best, err := linesize.MeanDelayOptimal(s, linesize.Config{
		CacheSize: kb << 10,
		BusWidth:  d,
		LatencyNS: cfg.LatencyNS,
		NSPerByte: cfg.TransferNS / float64(d),
		Lines:     candidates,
	}, cfg.TransferNS/cfg.CPUNS)
	if err != nil {
		return 0, false, err
	}
	if s.err != nil {
		return 0, false, s.err
	}
	return best, true, nil
}

// hitSurface adapts a hitRatioFunc to the missratio.Surface linesize
// selects over, keeping the first error the interface cannot carry.
type hitSurface struct {
	ctx context.Context
	hit hitRatioFunc
	err error
}

func (s *hitSurface) MissRatio(size, line int) float64 {
	hr, err := s.hit(s.ctx, size, line)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return 1
	}
	return 1 - hr
}

// oracleShapes are the axis shapes the oracle test crosses with every
// source, line mode and depth cap: sorted, unsorted and duplicated
// axes, with and without a binding power budget, and a timing so fast
// that candidate lines tie exactly on delay.
func oracleShapes() map[string]OptimizeConfig {
	base := func(kb, lines, bus []int) OptimizeConfig {
		return OptimizeConfig{
			Config: Config{
				CacheKB: kb, LineBytes: lines, BusBits: bus,
				LatencyNS: 360, TransferNS: 60, CPUNS: 30,
				SimRefs: 2_000, Seed: 7,
				Levels: []LevelAxes{
					{CacheKB: []int{64, 32}, LatencyNS: 90},
					{CacheKB: []int{256}, LineBytes: []int{128, 64}, LatencyNS: 180},
				},
			},
			AreaBudget: 2e7,
		}
	}
	// The 16B line, listed first, is shorter than two 128-bit
	// transfers, so a size's first flat design is on the 32-bit bus
	// while bus_bits lists 128 first: axis order and first appearance
	// disagree.
	unsorted := base([]int{16, 4, 8}, []int{16, 64, 32}, []int{128, 32})
	budget := base([]int{4, 8, 16}, []int{16, 32, 64}, []int{32, 64})
	budget.PowerBudget = 500
	ties := base([]int{4, 8}, []int{16, 32, 64}, []int{32, 64})
	ties.LatencyNS, ties.TransferNS = 1e-14, 1e-14
	ties.Levels = []LevelAxes{{CacheKB: []int{64}, LatencyNS: 1e-14}}
	return map[string]OptimizeConfig{
		"sorted":     base([]int{4, 8, 16}, []int{16, 32, 64}, []int{32, 64}),
		"unsorted":   unsorted,
		"duplicated": base([]int{8, 4, 8}, []int{32, 16, 64}, []int{64, 32, 64}),
		"power":      budget,
		"ties":       ties,
	}
}

// TestOptimizeMatchesPerPointOracle holds Optimize, which prices
// through the sweep's flat and hierarchy drivers and picks optimal
// lines from the priced designs, to the per-point search it replaced:
// identical results for every source, line mode, depth cap, axis
// shape and pool size.
func TestOptimizeMatchesPerPointOracle(t *testing.T) {
	ctx := context.Background()
	sources := []string{"model", "an:ear", "mrc:zipf", "mrc~:nasa7", "sim:ear"}
	ties := 0
	for name, shape := range oracleShapes() {
		for _, source := range sources {
			for _, mode := range []string{LineModeEnumerate, LineModeOptimal} {
				for maxLevels := 1; maxLevels <= 3; maxLevels++ {
					cfg := shape
					cfg.HitSource, cfg.LineMode, cfg.MaxLevels = source, mode, maxLevels
					want, err := oracleOptimize(ctx, cfg, 1)
					if err != nil {
						t.Fatalf("%s %s %s depth %d: oracle: %v", name, source, mode, maxLevels, err)
					}
					if mode == LineModeOptimal && maxLevels == 1 {
						ties += flatTies(t, ctx, cfg)
					}
					for _, workers := range []int{1, 8} {
						got, err := Optimize(ctx, cfg, workers)
						if err != nil {
							t.Fatalf("%s %s %s depth %d workers %d: %v", name, source, mode, maxLevels, workers, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s %s depth %d workers %d: result differs from the per-point oracle:\n got  %s\n want %s",
								name, source, mode, maxLevels, workers, optimizeSummary(got), optimizeSummary(want))
						}
					}
				}
			}
		}
	}
	// Without an exact delay tie between a pick and another line, the
	// tie rule would go untested.
	if ties == 0 {
		t.Fatal("no (size, bus) pick tied with another line on delay")
	}
}

// flatTies counts the (size, bus) pairs of cfg whose least delay is
// shared by two different lines.
func flatTies(t *testing.T, ctx context.Context, cfg OptimizeConfig) int {
	t.Helper()
	flat := cfg
	flat.LineMode, flat.MaxLevels, flat.PowerBudget, flat.AreaBudget = LineModeEnumerate, 1, 0, 1e300
	res, err := Optimize(ctx, flat, 1)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ kb, bus int }
	best := map[pair][]Design{}
	for _, d := range res.Designs {
		k := pair{d.CacheKB, d.BusBits}
		switch b := best[k]; {
		case len(b) == 0 || d.Delay < b[0].Delay:
			best[k] = []Design{d}
		case !(b[0].Delay < d.Delay) && d.LineBytes != b[0].LineBytes:
			best[k] = append(b, d)
		}
	}
	n := 0
	for _, b := range best {
		if len(b) > 1 {
			n++
		}
	}
	return n
}

// optimizeSummary renders a result compactly for failure messages.
func optimizeSummary(r OptimizeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %d feasible %d:", r.Total, r.Feasible)
	for _, d := range r.Designs {
		fmt.Fprintf(&b, " %d/%d/%d[%s]", d.CacheKB, d.LineBytes, d.BusBits, levelsCell(d.Levels))
	}
	return b.String()
}

// TestOptimizeOptimalDiffersFromOracle pins where line_mode
// "optimal" now answers differently from the per-point search, each
// because the pick is made among the priced flat designs:
//   - a duplicated line_bytes entry used to fail (linesize wants
//     strictly ascending candidates); it now answers exactly like the
//     de-duplicated axis;
//   - a line larger than a cache used to be skipped unless picked; it
//     now fails with the area model's error, as in enumerate mode and
//     /v1/sweep;
//   - delays that overflow to +Inf on every line used to drop the
//     (size, bus) pair (nothing beat linesize's +Inf start, so it
//     answered line 0, and linesize now fails instead); the smallest
//     line is now kept, and the service rejects its non-finite delay
//     like any other.
func TestOptimizeOptimalDiffersFromOracle(t *testing.T) {
	ctx := context.Background()
	dup := oracleShapes()["sorted"]
	dup.LineMode = LineModeOptimal
	dup.HitSource = "mrc:ear"
	dup.LineBytes = []int{32, 16, 64, 32}
	if _, err := oracleOptimize(ctx, dup, 1); err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
		t.Fatalf("per-point oracle on duplicated lines: err = %v, want linesize's ascending-lines error", err)
	}
	got, err := Optimize(ctx, dup, 4)
	if err != nil {
		t.Fatal(err)
	}
	dedup := dup
	dedup.LineBytes = []int{32, 16, 64}
	want, err := Optimize(ctx, dedup, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicated lines answer differently from the de-duplicated axis:\n got  %s\n want %s",
			optimizeSummary(got), optimizeSummary(want))
	}

	flat := func(kb, lines []int, latencyNS, cpuNS float64) OptimizeConfig {
		return OptimizeConfig{
			Config: Config{
				CacheKB: kb, LineBytes: lines, BusBits: []int{32},
				LatencyNS: latencyNS, TransferNS: 60, CPUNS: cpuNS,
			},
			AreaBudget: 1e9, LineMode: LineModeOptimal,
		}
	}
	oversized := flat([]int{1, 4}, []int{16, 2048}, 360, 30)
	if old, err := oracleOptimize(ctx, oversized, 1); err != nil || old.Total != 2 {
		t.Fatalf("per-point oracle on a 2048B line in a 1KB cache: %s, %v; want both 16B picks", optimizeSummary(old), err)
	}
	if _, err := Optimize(ctx, oversized, 1); err == nil || !strings.Contains(err.Error(), "line 2048 exceeds size 1024") {
		t.Fatalf("2048B line in a 1KB cache: err = %v, want the area model's error", err)
	}
	oversized.LineMode = LineModeEnumerate
	if _, err := Optimize(ctx, oversized, 1); err == nil || !strings.Contains(err.Error(), "line 2048 exceeds size 1024") {
		t.Fatalf("enumerate mode, 2048B line in a 1KB cache: err = %v, want the area model's error", err)
	}

	overflow := flat([]int{8}, []int{32, 64}, 1e308, 1e-300)
	if _, err := oracleOptimize(ctx, overflow, 1); err == nil || !strings.Contains(err.Error(), "no candidate line") {
		t.Fatalf("per-point oracle on +Inf delays: err = %v, want linesize's no-candidate error", err)
	}
	res, err := Optimize(ctx, overflow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Designs) != 1 || res.Designs[0].LineBytes != 32 || !math.IsInf(res.Designs[0].Delay, 1) {
		t.Fatalf("+Inf delays: %s, want the 32B line at +Inf delay", optimizeSummary(res))
	}
}
