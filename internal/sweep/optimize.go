package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"tradeoff/internal/engine"
	"tradeoff/internal/obs"
)

// Line-size search modes for Optimize. LineModeEnumerate keeps every
// line_bytes candidate as its own design point; LineModeOptimal keeps
// one line per (cache size, bus width), the paper's §5.4 optimal line
// (least mean delay per reference over the configured hit source),
// before the hierarchy axes expand the space.
const (
	LineModeEnumerate = "enumerate"
	LineModeOptimal   = "optimal"
)

// OptimizeConfig is the JSON schema of a cost-constrained design-space
// search: the sweep axes (hierarchy levels included), budgets, and the
// line-size mode. The search enumerates every depth prefix of the
// level axes — L1 alone, L1+L2, L1+L2+L3, … — so shallow and deep
// hierarchies compete in the same frontier under the same budget.
type OptimizeConfig struct {
	Config

	// AreaBudget is the maximum total cache area in rbe (required).
	AreaBudget float64 `json:"area_budget"`
	// PowerBudget caps the per-reference access-energy proxy
	// (Design.PowerProxy); 0 means unconstrained.
	PowerBudget float64 `json:"power_budget,omitempty"`
	// MaxLevels caps the hierarchy depth searched (default: all the
	// configured levels).
	MaxLevels int `json:"max_levels,omitempty"`
	// LineMode is "enumerate" (default) or "optimal".
	LineMode string `json:"line_mode,omitempty"`
}

// SetDefaults fills zero-valued optional fields with their defaults.
func (c *OptimizeConfig) SetDefaults() {
	c.Config.SetDefaults()
	if c.MaxLevels == 0 {
		c.MaxLevels = 1 + len(c.Levels)
	}
	if c.LineMode == "" {
		c.LineMode = LineModeEnumerate
	}
}

// Validate reports configurations outside the search's domain. It
// assumes SetDefaults has run.
func (c *OptimizeConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch {
	case c.AreaBudget <= 0:
		return fmt.Errorf("sweep: area_budget = %g, want > 0", c.AreaBudget)
	case c.PowerBudget < 0:
		return fmt.Errorf("sweep: power_budget = %g, want >= 0", c.PowerBudget)
	case c.MaxLevels < 1:
		return fmt.Errorf("sweep: max_levels = %d, want >= 1", c.MaxLevels)
	}
	switch c.LineMode {
	case LineModeEnumerate, LineModeOptimal:
	default:
		return fmt.Errorf("sweep: line_mode %q, want %q or %q", c.LineMode, LineModeEnumerate, LineModeOptimal)
	}
	return nil
}

// depth returns the number of hierarchy depths searched.
func (c *OptimizeConfig) depth() int {
	if c.MaxLevels < 1+len(c.Levels) {
		return c.MaxLevels
	}
	return 1 + len(c.Levels)
}

// CheckLimits bounds the search like Config.CheckLimits bounds a
// sweep, summing the design points over every depth prefix.
func (c *OptimizeConfig) CheckLimits(lim Limits) error {
	total, n := 0, c.flatPoints()
	for depth := 0; depth < c.depth(); depth++ {
		if depth > 0 {
			n = SatMul(n, levelChoices(c.Levels[depth-1]))
		}
		if total > math.MaxInt-n {
			total = math.MaxInt
		} else {
			total += n
		}
	}
	if lim.MaxPoints > 0 && total > lim.MaxPoints {
		return fmt.Errorf("sweep: %d design points exceeds the limit of %d", total, lim.MaxPoints)
	}
	sizeOnly := lim
	sizeOnly.MaxPoints = 0
	return c.Config.CheckLimits(sizeOnly)
}

// ParseOptimizeConfig decodes a JSON optimize configuration, applies
// defaults and validates it — the single entry point for CLI and
// service, like ParseConfig.
func ParseOptimizeConfig(data []byte) (OptimizeConfig, error) {
	var cfg OptimizeConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return OptimizeConfig{}, fmt.Errorf("sweep: parsing optimize config: %w", err)
	}
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return OptimizeConfig{}, err
	}
	return cfg, nil
}

// Canonical returns the canonicalized JSON encoding with defaults
// applied — the optimize endpoint's memoization key.
func (c OptimizeConfig) Canonical() ([]byte, error) {
	c.SetDefaults()
	return json.Marshal(c)
}

// OptimizeResult is a completed search: every budget-feasible design
// (Pareto flags set over the feasible set) plus the enumeration counts
// the filtering consumed.
type OptimizeResult struct {
	Total    int      // design points enumerated across all depths
	Feasible int      // points within the budgets (== len(Designs))
	Designs  []Design // feasible designs, Pareto-marked, deterministic order
}

// Optimize searches the joint (hierarchy depth, cache sizes, line
// sizes, bus width) space under the configured budgets and returns
// the feasible designs with the (delay, area, pins) Pareto frontier
// flagged. Like Run it is deterministic, ctx-cancellable and pooled.
func Optimize(ctx context.Context, cfg OptimizeConfig, workers int) (OptimizeResult, error) {
	return OptimizeCaches(ctx, cfg, workers, Caches{})
}

// OptimizeCaches is Optimize with caller-owned memoization state (see
// Caches); the tradeoffd service shares its curve and model caches
// across requests this way.
//
// The search prices through the sweep's own driver: every flat design
// once, one optimize_point span per distinct (size, line) geometry as
// in runFlat, then every deeper design on the hierarchy pool
// (runHierarchy), one span each.
func OptimizeCaches(ctx context.Context, cfg OptimizeConfig, workers int, caches Caches) (OptimizeResult, error) {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	flatCfg := cfg.Config
	flatCfg.Levels = nil
	points := enumerate(flatCfg)
	if len(points) == 0 {
		return OptimizeResult{}, fmt.Errorf("sweep: empty optimize space (every line < 2D, or no monotone hierarchy?)")
	}
	// Every deeper design the search may price, depth-major over the
	// flat points: with lines enumerated exactly the ones it prices,
	// which resolveSurface indexes and checks; with optimal lines a
	// superset, which it indexes whole but checks only where the
	// geometry does not wait on the line the flat pass keeps.
	deep := cfg.deeper(nil, points...)
	var settled func(p point, i int) bool
	if cfg.LineMode == LineModeOptimal {
		settled = cfg.settled(points)
	}
	surf, err := resolveSurface(ctx, cfg.Config, caches, points, deep, settled)
	if err != nil {
		return OptimizeResult{}, err
	}

	ctx = obs.WithSpanName(ctx, "optimize_point")
	flat, err := runFlat(ctx, flatCfg, workers, surf, points)
	if err != nil {
		return OptimizeResult{}, err
	}

	// Lay the designs out in result order: each depth prefix of the
	// level axes extends the kept flat designs, depth-major over all of
	// them when lines are enumerated, right after each (size, bus) pick
	// when they are optimal. An order entry i < len(kept) is kept[i];
	// any other is deep[i-len(kept)], priced on the hierarchy pool.
	kept := flat
	order := make([]int, 0, len(flat)+len(deep))
	if cfg.LineMode == LineModeOptimal {
		kept, deep = leastDelayLines(cfg.Config, flat), nil
		for i, d := range kept {
			order = append(order, i)
			n := len(deep)
			deep = cfg.deeper(deep, point{cacheKB: d.CacheKB, line: d.LineBytes, busBits: d.BusBits})
			for j := n; j < len(deep); j++ {
				order = append(order, len(kept)+j)
			}
		}
	} else {
		for i := range len(kept) + len(deep) {
			order = append(order, i)
		}
	}
	priced, err := runHierarchy(ctx, cfg.Config, workers, surf, deep)
	if err != nil {
		return OptimizeResult{}, err
	}

	feasible := make([]Design, 0, len(order))
	for _, i := range order {
		var d Design
		if i < len(kept) {
			d = kept[i]
		} else {
			d = priced[i-len(kept)]
		}
		d.PowerProxy = powerProxy(d)
		if d.AreaRBE > cfg.AreaBudget {
			continue
		}
		if cfg.PowerBudget > 0 && d.PowerProxy > cfg.PowerBudget {
			continue
		}
		feasible = append(feasible, d)
	}
	MarkPareto(feasible)
	return OptimizeResult{Total: len(order), Feasible: len(feasible), Designs: feasible}, nil
}

// deeper appends to deep every design at depths 2 through c.depth()
// extending points, depth-major and in enumeration order within each
// depth.
func (c *OptimizeConfig) deeper(deep []point, points ...point) []point {
	for depth := 1; depth < c.depth(); depth++ {
		sub := c.Config
		sub.Levels = c.Levels[:depth]
		for _, p := range points {
			deep = extendLevels(deep, sub, point{cacheKB: p.cacheKB, line: p.line, busBits: p.busBits}, 0)
		}
	}
	return deep
}

// settled reports whether an optimal-line search prices level i of
// the deeper design p whichever line it keeps for p's (cache size,
// bus width): whether the deeper designs of every line enumerated for
// that pair share the level's geometry. A level that inherits the
// kept line, or that only the shorter lines reach, is not settled
// until the flat pass has picked.
func (c *OptimizeConfig) settled(points []point) func(p point, i int) bool {
	type pair struct{ kb, bus int }
	type geom struct {
		pair
		level, kb, line int
	}
	lines := make(map[pair]int)   // lines enumerated per pair
	reached := make(map[geom]int) // of them, the lines whose deeper designs share geom
	for _, p := range points {
		k := pair{p.cacheKB, p.busBits}
		lines[k]++
		seen := make(map[geom]bool)
		for _, d := range c.deeper(nil, p) {
			for i, lp := range d.levels {
				g := geom{k, i + 1, lp.kb, lp.line}
				if !seen[g] {
					seen[g] = true
					reached[g]++
				}
			}
		}
	}
	return func(p point, i int) bool {
		k, lp := pair{p.cacheKB, p.busBits}, p.levels[i-1]
		return reached[geom{k, i, lp.kb, lp.line}] == lines[k]
	}
}

// leastDelayLines applies the paper's §5.4 optimal-line criterion to
// the priced flat designs: for each (cache size, bus width) in axis
// order it keeps the design with the least mean memory delay per
// reference (Eq. 15), the smaller line winning a tie.
func leastDelayLines(cfg Config, flat []Design) []Design {
	type pair struct{ kb, bus int }
	best := make(map[pair]Design)
	for _, d := range flat {
		k := pair{d.CacheKB, d.BusBits}
		if b, ok := best[k]; !ok || d.Delay < b.Delay || !(b.Delay < d.Delay) && d.LineBytes < b.LineBytes {
			best[k] = d
		}
	}
	var picks []Design
	for _, kb := range cfg.CacheKB {
		for _, bus := range cfg.BusBits {
			if d, ok := best[pair{kb, bus}]; ok {
				picks = append(picks, d)
			}
		}
	}
	return picks
}

// powerProxy computes the per-reference access-energy proxy of a
// design: each level's sqrt(rbe) access energy (area.AccessEnergy)
// weighted by the rate at which demand probes reach it — every
// reference probes L1, only the compounded miss stream probes deeper.
// Off-chip energy is out of scope; the budget constrains the on-chip
// hierarchy.
func powerProxy(d Design) float64 {
	l1 := d.AreaRBE
	for _, l := range d.Levels {
		l1 -= l.AreaRBE
	}
	e := math.Sqrt(l1)
	rate := 1 - d.HitRatio
	for _, l := range d.Levels {
		e += rate * math.Sqrt(l.AreaRBE)
		rate *= 1 - l.LocalHitRatio
	}
	return e
}

// WriteOptimizeCSV emits the search's CSV: the sweep columns plus the
// power proxy and the deeper levels, one row per feasible design.
func WriteOptimizeCSV(w io.Writer, ds []Design) error {
	header := []string{"cache_kb", "line_bytes", "bus_bits", "levels", "hit_ratio", "global_hit_ratio",
		"hit_source", "delay_per_ref", "area_rbe", "pins", "power_proxy", "pareto"}
	return engine.WriteCSV(w, header, len(ds), func(i int) []string {
		d := &ds[i]
		global := d.GlobalHitRatio
		if len(d.Levels) == 0 {
			global = d.HitRatio
		}
		return []string{
			strconv.Itoa(d.CacheKB), strconv.Itoa(d.LineBytes), strconv.Itoa(d.BusBits),
			levelsCell(d.Levels),
			strconv.FormatFloat(d.HitRatio, 'f', 5, 64),
			strconv.FormatFloat(global, 'f', 5, 64),
			d.HitSource,
			strconv.FormatFloat(d.Delay, 'f', 4, 64),
			strconv.FormatFloat(d.AreaRBE, 'f', 0, 64),
			strconv.Itoa(d.Pins),
			strconv.FormatFloat(d.PowerProxy, 'f', 2, 64),
			strconv.FormatBool(d.Pareto),
		}
	})
}
