package sweep

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tradeoff/internal/area"
	"tradeoff/internal/core"
	"tradeoff/internal/engine"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
)

// Design is one evaluated point of the space: the knobs, the measured
// or modeled hit ratio, and the three cost/performance axes of the
// §5.2 study. CacheKB/LineBytes/HitRatio always describe the first
// level; for hierarchies Levels carries the deeper levels, AreaRBE
// sums every level, and Delay is the N-level mean memory delay.
type Design struct {
	CacheKB   int     `json:"cache_kb"`
	LineBytes int     `json:"line_bytes"`
	BusBits   int     `json:"bus_bits"`
	HitRatio  float64 `json:"hit_ratio"`
	HitSource string  `json:"hit_source"` // the pricer that produced HitRatio, after Mode resolution
	Delay     float64 `json:"delay_per_ref"`
	AreaRBE   float64 `json:"area_rbe"`
	Pins      int     `json:"pins"`
	Pareto    bool    `json:"pareto"`

	// Hierarchy-only fields; omitted (and zero) on flat sweeps so
	// existing JSON responses and memo keys are byte-identical.
	Levels         []LevelDesign `json:"levels,omitempty"`
	GlobalHitRatio float64       `json:"global_hit_ratio,omitempty"`
	PowerProxy     float64       `json:"power_proxy,omitempty"` // per-reference access-energy proxy (optimize only)
}

// LevelDesign is one level below the first in an evaluated hierarchy.
type LevelDesign struct {
	CacheKB       int     `json:"cache_kb"`
	LineBytes     int     `json:"line_bytes"`
	LocalHitRatio float64 `json:"local_hit_ratio"`
	// WorthHR is the level priced in the paper's currency: the
	// equivalent first-level hit-ratio increase that would match
	// adding this level (core.PriceLevel). Negative means the level
	// hurts at this design point.
	WorthHR float64 `json:"worth_hr"`
	AreaRBE float64 `json:"area_rbe"`
}

// point is one enumerated (cache, line, bus[, deeper levels])
// combination awaiting evaluation.
type point struct {
	cacheKB, line, busBits int
	levels                 []levelPoint // levels 2..N, monotone in size and line
}

// levelPoint is one deeper level's resolved (capacity, line) choice.
type levelPoint struct {
	kb, line int
}

// Run evaluates the whole design space on the shared engine.Map pool
// and returns the designs in enumeration order (cache size outermost,
// bus width innermost) with Pareto flags set — byte-for-byte the order
// a serial sweep produces. workers <= 0 selects runtime.NumCPU(). The
// context cancels in-flight evaluation: a disconnected HTTP client or
// an interrupted CLI stops the pool early with ctx.Err().
func Run(ctx context.Context, cfg Config, workers int) ([]Design, error) {
	return RunCaches(ctx, cfg, workers, Caches{})
}

// Caches holds the caller-owned memoization state a sweep may share
// across requests: exact miss-ratio curves ("mrc:"/"mrc~:") and
// analytic curves ("an:", and "sim:"/"mrc:" re-priced by the mode
// knob). Either field may be nil; the sweep then uses a private cache
// scoped to the one run. The tradeoffd service holds one of each for
// its lifetime.
type Caches struct {
	Curves *mrc.CurveCache
	Models *model.Cache
}

// RunCaches is Run with caller-owned curve caches, so curves survive
// across sweeps. A private cache still pays exactly one pass per
// (workload, line size) within its sweep.
func RunCaches(ctx context.Context, cfg Config, workers int, caches Caches) ([]Design, error) {
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	points := enumerate(cfg)
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: empty design space (every line < 2D, or no monotone hierarchy?)")
	}
	run, flat, deep := runFlat, points, []point(nil)
	if len(cfg.Levels) > 0 {
		run, flat, deep = runHierarchy, nil, points
	}
	surf, err := resolveSurface(ctx, cfg, caches, flat, deep, nil)
	if err != nil {
		return nil, err
	}

	ctx = obs.WithSpanName(ctx, "sweep_point")
	out, err := run(ctx, cfg, workers, surf, points)
	if err != nil {
		return nil, err
	}
	MarkPareto(out)
	return out, nil
}

// geometry is a flat design's cache shape. Bus width D enters only the
// delay side of the tradeoff (Eqs. 2–7), so every design sharing a
// geometry shares its hit ratio.
type geometry struct {
	cacheKB, line int
}

// runFlat evaluates a flat sweep in two steps: the pool prices each
// distinct (size, line) geometry's hit ratio once — one sweep_point
// span per geometry — and a plain loop then prices every (size, line,
// bus) design from its geometry's ratio, in enumeration order.
func runFlat(ctx context.Context, cfg Config, workers int, surf surface, points []point) ([]Design, error) {
	index := make(map[geometry]int)
	var geoms []geometry
	for _, p := range points {
		g := geometry{p.cacheKB, p.line}
		if _, ok := index[g]; !ok {
			index[g] = len(geoms)
			geoms = append(geoms, g)
		}
	}
	ratios, err := engine.Map(ctx, geoms, workers, func(ctx context.Context, g geometry) (float64, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("cache_kb", g.cacheKB)
			s.SetArg("line", g.line)
		}
		return surf.hit(ctx, g.cacheKB<<10, g.line, cfg.Assoc)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Design, len(points))
	for i, p := range points {
		if out[i], err = evaluate(cfg, ratios[index[geometry{p.cacheKB, p.line}]], surf.name, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runHierarchy evaluates hierarchy points on the pool, one span per
// design in the caller's span name, results in points order.
func runHierarchy(ctx context.Context, cfg Config, workers int, surf surface, points []point) ([]Design, error) {
	return engine.Map(ctx, points, workers, func(ctx context.Context, p point) (Design, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("cache_kb", p.cacheKB)
			s.SetArg("line", p.line)
			s.SetArg("bus_bits", p.busBits)
		}
		return evaluateHierarchy(ctx, cfg, surf, p)
	})
}

// enumerate expands the config's axes into design points in
// deterministic order: cache size outermost, bus width innermost, then
// each deeper level's (capacity, line) axes. Hierarchy combinations
// must grow monotonically — each level strictly larger than the one
// above, lines non-decreasing — everything else is skipped.
func enumerate(cfg Config) []point {
	var points []point
	for _, kb := range cfg.CacheKB {
		for _, line := range cfg.LineBytes {
			for _, busBits := range cfg.BusBits {
				if line < 2*(busBits/8) {
					continue // a line must span at least two bus transfers
				}
				points = extendLevels(points, cfg, point{cacheKB: kb, line: line, busBits: busBits}, 0)
			}
		}
	}
	return points
}

// extendLevels recursively appends every monotone completion of p with
// the axes of cfg.Levels[depth:].
func extendLevels(points []point, cfg Config, p point, depth int) []point {
	if depth == len(cfg.Levels) {
		return append(points, p)
	}
	prevKB, prevLine := p.cacheKB, p.line
	if depth > 0 {
		prev := p.levels[depth-1]
		prevKB, prevLine = prev.kb, prev.line
	}
	lines := cfg.Levels[depth].LineBytes
	if len(lines) == 0 {
		lines = []int{prevLine} // inherit the line above
	}
	for _, kb := range cfg.Levels[depth].CacheKB {
		if kb <= prevKB {
			continue
		}
		for _, line := range lines {
			if line < prevLine {
				continue
			}
			next := p
			next.levels = append(p.levels[:depth:depth], levelPoint{kb: kb, line: line})
			points = extendLevels(points, cfg, next, depth+1)
		}
	}
	return points
}

// evaluate prices one flat design point from its hit ratio hr:
// Eq. (2)-style mean delay per reference, rbe area and pins.
func evaluate(cfg Config, hr float64, source string, p point) (Design, error) {
	d := p.busBits / 8
	c := 1 + cfg.LatencyNS/cfg.CPUNS
	beta := cfg.TransferNS / cfg.CPUNS
	delay := core.MeanDelayPerRef(hr, c, beta, float64(p.line), float64(d))
	rbe, err := area.RBE(area.CacheGeometry{
		Size: p.cacheKB << 10, LineSize: p.line, Assoc: cfg.Assoc, AddrBits: cfg.AddrBits})
	if err != nil {
		return Design{}, err
	}
	pins := area.Pins{DataBits: p.busBits, AddrBits: cfg.AddrBits, Control: cfg.CtrlPins}
	return Design{
		CacheKB: p.cacheKB, LineBytes: p.line, BusBits: p.busBits,
		HitRatio: hr, HitSource: source, Delay: delay, AreaRBE: rbe, Pins: pins.Total(),
	}, nil
}

// evaluateHierarchy prices one N-level design point. Local hit ratios
// come from a real hierarchy replay for "sim:" sources and from the
// LRU stack property for curve sources: a level of capacity S_i has
// global hit ratio C(S_i) on the same curve, so its local ratio over
// the miss stream above is (C(S_i) − C(S_{i−1})) / (1 − C(S_{i−1})).
// Delay is core.HierarchyDelay with the memory line fill priced at
// the last level's line size; area sums every level's rbe.
func evaluateHierarchy(ctx context.Context, cfg Config, surf surface, p point) (Design, error) {
	d := p.busBits / 8
	c := 1 + cfg.LatencyNS/cfg.CPUNS
	beta := cfg.TransferNS / cfg.CPUNS
	lastLine := p.levels[len(p.levels)-1].line
	tMem := c + float64(lastLine)/float64(d)*beta

	locals, global, err := surf.locals(ctx, cfg, p)
	if err != nil {
		return Design{}, err
	}

	specs := make([]core.LevelSpec, len(locals))
	specs[0] = core.LevelSpec{HitRatio: clampRatio(locals[0], 1-1e-12), Time: 1}
	for i := range p.levels {
		specs[i+1] = core.LevelSpec{
			HitRatio: clampRatio(locals[i+1], 1),
			Time:     1 + cfg.Levels[i].LatencyNS/cfg.CPUNS,
		}
	}
	delay, err := core.HierarchyDelay(specs, tMem)
	if err != nil {
		return Design{}, err
	}

	geom := func(kb, line, assoc int) area.CacheGeometry {
		return area.CacheGeometry{Size: kb << 10, LineSize: line, Assoc: assoc, AddrBits: cfg.AddrBits}
	}
	rbe, err := area.RBE(geom(p.cacheKB, p.line, cfg.Assoc))
	if err != nil {
		return Design{}, err
	}
	levels := make([]LevelDesign, len(p.levels))
	total := rbe
	for i, lp := range p.levels {
		lr, err := area.RBE(geom(lp.kb, lp.line, cfg.Levels[i].Assoc))
		if err != nil {
			return Design{}, err
		}
		total += lr
		// The level's worth in equivalent first-level hit ratio: both
		// delays mapped onto the single-level scale h + (1−h)·tMem
		// differ by (base − with)/(tMem − 1), the PriceLevel currency
		// (signed, so a hurtful level prices negative instead of
		// failing the sweep).
		without := append(append([]core.LevelSpec(nil), specs[:i+1]...), specs[i+2:]...)
		base, err := core.HierarchyDelay(without, tMem)
		if err != nil {
			return Design{}, err
		}
		levels[i] = LevelDesign{
			CacheKB: lp.kb, LineBytes: lp.line,
			LocalHitRatio: specs[i+1].HitRatio,
			WorthHR:       (base - delay) / (tMem - 1),
			AreaRBE:       lr,
		}
	}

	pins := area.Pins{DataBits: p.busBits, AddrBits: cfg.AddrBits, Control: cfg.CtrlPins}
	return Design{
		CacheKB: p.cacheKB, LineBytes: p.line, BusBits: p.busBits,
		HitRatio: specs[0].HitRatio, HitSource: surf.name, Delay: delay,
		AreaRBE: total, Pins: pins.Total(),
		Levels: levels, GlobalHitRatio: global,
	}, nil
}

// curveLocals prices every level off the configured hit-ratio curve
// via the LRU stack property, each at its own associativity.
func curveLocals(ctx context.Context, hit hitRatioFunc, cfg Config, p point) ([]float64, float64, error) {
	locals := make([]float64, len(p.levels)+1)
	g := 0.0
	for i := range locals {
		c := p.level(cfg, i)
		gi, err := hit(ctx, c.Size, c.LineSize, c.Assoc)
		if err != nil {
			return nil, 0, err
		}
		gi = clampRatio(gi, 1)
		switch {
		case i == 0:
			locals[0], g = gi, gi
		case gi > g && g < 1:
			locals[i], g = (gi-g)/(1-g), gi
		}
	}
	return locals, g, nil
}

// clampRatio confines a measured or modeled ratio to [0, hi], guarding
// the delay model's domain against curve noise at the boundaries.
func clampRatio(v, hi float64) float64 {
	if !(v > 0) { // also catches NaN
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// hitRatioFunc prices the hit ratio of a (size, line, assoc) cache.
// The context carries the worker's span, so curve passes nest under
// their sweep_point in a -trace export.
type hitRatioFunc func(ctx context.Context, sizeBytes, line, assoc int) (float64, error)

// MarkPareto flags designs not dominated in (delay, area, pins).
func MarkPareto(ds []Design) {
	for i := range ds {
		a := &ds[i]
		a.Pareto = true
		for j := range ds {
			if i == j {
				continue
			}
			b := &ds[j]
			if b.Delay <= a.Delay && b.AreaRBE <= a.AreaRBE && b.Pins <= a.Pins &&
				(b.Delay < a.Delay || b.AreaRBE < a.AreaRBE || b.Pins < a.Pins) {
				a.Pareto = false
				break
			}
		}
	}
}

// ParetoCount returns the number of Pareto-efficient designs.
func ParetoCount(ds []Design) int {
	n := 0
	for i := range ds {
		if ds[i].Pareto {
			n++
		}
	}
	return n
}

// WriteCSV emits the sweep's canonical CSV: one row per design in
// slice order, with the exact column set and float formatting the
// original serial cmd/sweep produced. Hierarchy sweeps append one
// "levels" column ("kb:line/kb:line", levels 2..N); flat sweeps keep
// the original byte-identical shape.
func WriteCSV(w io.Writer, ds []Design) error {
	header := []string{"cache_kb", "line_bytes", "bus_bits", "hit_ratio", "hit_source", "delay_per_ref", "area_rbe", "pins", "pareto"}
	hierarchical := false
	for i := range ds {
		if len(ds[i].Levels) > 0 {
			hierarchical = true
			header = append(header, "levels")
			break
		}
	}
	return engine.WriteCSV(w, header, len(ds), func(i int) []string {
		d := &ds[i]
		row := []string{
			strconv.Itoa(d.CacheKB), strconv.Itoa(d.LineBytes), strconv.Itoa(d.BusBits),
			strconv.FormatFloat(d.HitRatio, 'f', 5, 64),
			d.HitSource,
			strconv.FormatFloat(d.Delay, 'f', 4, 64),
			strconv.FormatFloat(d.AreaRBE, 'f', 0, 64),
			strconv.Itoa(d.Pins),
			strconv.FormatBool(d.Pareto),
		}
		if hierarchical {
			row = append(row, levelsCell(d.Levels))
		}
		return row
	})
}

// levelsCell encodes a design's deeper levels for the CSV: one
// "kb:line" pair per level, slash-separated, empty for flat designs.
func levelsCell(levels []LevelDesign) string {
	parts := make([]string, len(levels))
	for i, l := range levels {
		parts[i] = strconv.Itoa(l.CacheKB) + ":" + strconv.Itoa(l.LineBytes)
	}
	return strings.Join(parts, "/")
}
