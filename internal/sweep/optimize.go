package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"tradeoff/internal/engine"
	"tradeoff/internal/linesize"
	"tradeoff/internal/obs"
)

// Line-size search modes for Optimize. LineModeEnumerate keeps every
// line_bytes candidate as its own design point; LineModeOptimal picks
// one line per (cache size, bus width) with the paper's §5.4 optimal-
// line criterion (linesize.MeanDelayOptimal over the configured hit
// source) before the hierarchy axes expand the space.
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
	flat := len(c.CacheKB) * len(c.LineBytes) * len(c.BusBits)
	total, mult := 0, 1
	for depth := 0; depth < c.depth(); depth++ {
		if depth > 0 {
			lv := c.Levels[depth-1]
			lines := len(lv.LineBytes)
			if lines == 0 {
				lines = 1
			}
			mult *= len(lv.CacheKB) * lines
		}
		total += flat * mult
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
func OptimizeCaches(ctx context.Context, cfg OptimizeConfig, workers int, caches Caches) (OptimizeResult, error) {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	surf := resolveSurface(ctx, cfg.Config, caches)
	points, err := optimizePoints(ctx, cfg, surf.hit)
	if err != nil {
		return OptimizeResult{}, err
	}
	if len(points) == 0 {
		return OptimizeResult{}, fmt.Errorf("sweep: empty optimize space (every line < 2D, or no monotone hierarchy?)")
	}

	ctx = obs.WithSpanName(ctx, "optimize_point")
	all, err := engine.Map(ctx, points, workers, func(ctx context.Context, p point) (Design, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("cache_kb", p.cacheKB)
			s.SetArg("levels", len(p.levels)+1)
		}
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
		if d.AreaRBE > cfg.AreaBudget {
			continue
		}
		if cfg.PowerBudget > 0 && d.PowerProxy > cfg.PowerBudget {
			continue
		}
		d.Pareto = false
		feasible = append(feasible, d)
	}
	MarkPareto(feasible)
	return OptimizeResult{Total: len(all), Feasible: len(feasible), Designs: feasible}, nil
}

// optimizePoints enumerates the search space: every depth prefix of
// the level axes, with the L1 line either enumerated or fixed per
// (cache size, bus width) by the optimal-line criterion.
func optimizePoints(ctx context.Context, cfg OptimizeConfig, hit hitRatioFunc) ([]point, error) {
	depths := cfg.depth()
	if cfg.LineMode == LineModeEnumerate {
		var points []point
		for depth := 0; depth < depths; depth++ {
			sub := cfg.Config
			sub.Levels = cfg.Levels[:depth]
			points = append(points, enumerate(sub)...)
		}
		return points, nil
	}
	// LineModeOptimal: one L1 line per (size, bus), chosen by the
	// §5.4 mean-delay criterion over the configured hit source.
	var points []point
	for _, kb := range cfg.CacheKB {
		for _, bus := range cfg.BusBits {
			line, ok, err := optimalLine(ctx, cfg.Config, hit, kb, bus)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			sub := cfg.Config
			sub.CacheKB, sub.LineBytes, sub.BusBits = []int{kb}, []int{line}, []int{bus}
			for depth := 0; depth < depths; depth++ {
				sub.Levels = cfg.Levels[:depth]
				points = append(points, enumerate(sub)...)
			}
		}
	}
	return points, nil
}

// optimalLine picks the best L1 line for one (size, bus) pair among
// the config's line_bytes candidates that satisfy line >= 2D, via
// linesize.MeanDelayOptimal on the hit source. ok is false when no
// candidate fits the bus.
func optimalLine(ctx context.Context, cfg Config, hit hitRatioFunc, kb, busBits int) (int, bool, error) {
	d := busBits / 8
	candidates := make([]int, 0, len(cfg.LineBytes))
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
	// NSPerByte = TransferNS/D makes linesize's normalized timing
	// (c = 1 + λβ, penalty β·L/D) coincide with the sweep's
	// (c = 1 + LatencyNS/CPUNS, β = TransferNS/CPUNS).
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

// hitSurface adapts a hitRatioFunc to the missratio.Surface interface
// linesize selects over, capturing the first underlying error (the
// interface has no error channel).
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
