package sweep

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"tradeoff/internal/cache"
	"tradeoff/internal/missratio"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// ErrorBound returns the committed maximum absolute hit-ratio error of
// an effective hit source, as stamped on Design.HitSource or a stall
// point's Source: model.ErrorBound of the workload for an analytic
// "an:<workload>" source, and 0 (no bound applies) for every other
// tier.
func ErrorBound(source string) float64 {
	if prefix, name, _ := SourceWorkload(source); prefix == "an:" {
		return model.ErrorBound(name)
	}
	return 0
}

// surface is a sweep's hit source resolved once, after Mode: the
// effective source name stamped on every Design, the (size, line,
// assoc) hit-ratio function, and, for "sim:" only, the request's
// trace, which flat geometries and hierarchy points alike read.
type surface struct {
	name string
	hit  hitRatioFunc
	refs []trace.Ref // nil unless the source is "sim:"
}

// resolveSurface builds cfg's surface: the calibrated design-target
// surface ("model"), a closed-form analytic curve ("an:<name>",
// internal/model), a single-pass miss-ratio curve ("mrc:<name>" exact,
// "mrc~:<name>" SHARDS-sampled), or cache simulation of a named
// workload ("sim:<name>"). Curve tiers share one memoized curve per
// (workload, line size) through caches (a nil field gets a private
// cache scoped to this run). Both trace-driven tiers read the
// request's one trace, generated at most once in a trace_gen span:
// "sim:" generates it here, before any pool worker starts, and
// simulates every size of a line in one cache.HitRatios pass; "mrc:"
// and "mrc~:" generate it lazily, inside the memo flight of the first
// curve that misses the cache, and profile every missing line size
// from it. Either way the hit function is safe for concurrent use by
// the pool. It assumes Validate has passed, so every workload name is
// known.
//
// flat and deep are the request's points in enumeration order: the
// flat designs of a sweep or search, and the hierarchy designs of a
// sweep or every deeper design a search may extend its flat ones to.
// hit answers exactly their geometries: L1 at cfg.Assoc, and level i
// at cfg.Levels[i-2].Assoc, the associativity the simulator and the
// area model give it. Each tier but "model" indexes a line size's
// geometries together (lineTables), so a request looks each curve up
// once and corrects each distinct geometry it prices once. Under
// "sim:" every flat geometry, and every deeper level i of a deep
// point p for which settled(p, i) holds (all of them when settled is
// nil), is first checked with cache.Config's Validate, in enumeration
// order and before the trace is generated, so an invalid one fails
// the request at once with the first one's error; a deep point's
// levels are named as cache.NewHierarchy names them ("L1: …"). A
// level left unchecked, one a search may never price, fails later, in
// cache.NewHierarchy, if its design is priced.
func resolveSurface(ctx context.Context, cfg Config, caches Caches, flat, deep []point, settled func(p point, i int) bool) (surface, error) {
	s := surface{name: cfg.EffectiveHitSource()}
	prefix, name, _ := SourceWorkload(s.name)
	var curve func(ctx context.Context, line int) (*mrc.Curve, error)
	switch prefix {
	case "":
		m := missratio.DefaultModel()
		s.hit = func(_ context.Context, size, line, _ int) (float64, error) {
			return 1 - m.MissRatio(size, line), nil
		}
	case "an:":
		models := caches.Models
		if models == nil {
			models = model.NewCache(0, 0)
		}
		spec := model.Spec{Workload: name, Seed: cfg.Seed, Refs: cfg.SimRefs}
		curve = func(ctx context.Context, line int) (*mrc.Curve, error) {
			s := spec
			s.LineSize = line
			c, _, err := models.Get(ctx, s)
			return c, err
		}
	case "mrc:", "mrc~:":
		curves := caches.Curves
		if curves == nil {
			curves = mrc.NewCurveCache(0, 0)
		}
		spec := mrc.Spec{Workload: name, Seed: cfg.Seed, Refs: cfg.SimRefs, Sampled: prefix == "mrc~:"}
		if spec.Sampled {
			spec.Sampler = mrc.SamplerConfig{Rate: cfg.MRCRate, Budget: cfg.MRCBudget}
		}
		var (
			once sync.Once
			refs []trace.Ref
		)
		collect := func(ctx context.Context) []trace.Ref {
			once.Do(func() { refs = collectTrace(ctx, name, cfg) })
			return refs
		}
		curve = func(ctx context.Context, line int) (*mrc.Curve, error) {
			s := spec
			s.LineSize = line
			c, _, err := curves.Get(ctx, s, collect)
			return c, err
		}
	case "sim:":
		var refs []trace.Ref
		tables := lineTables{byLine: map[int]*lineTable{}, open: func(ctx context.Context, line int, geoms []shape) (func(i int) cache.SizeRatio, error) {
			_, span := obs.StartSpan(ctx, "sim_pass")
			defer span.End()
			span.SetArg("workload", name)
			span.SetArg("line_size", line)
			span.SetArg("refs", len(refs))
			span.SetArg("sizes", len(geoms))
			sizes := make([]int, len(geoms))
			for i, g := range geoms {
				sizes[i] = g.size
			}
			ratios, err := cache.HitRatios(ctx, refs, line, cfg.Assoc, sizes)
			if err != nil {
				return nil, err
			}
			return func(i int) cache.SizeRatio { return ratios[i] }, nil
		}}
		for _, p := range flat {
			if g := p.level(cfg, 0); tables.add(g) {
				if err := g.Validate(); err != nil {
					return surface{}, err
				}
			}
		}
		for _, p := range deep {
			for i := range len(p.levels) + 1 {
				if i > 0 && settled != nil && !settled(p, i) {
					continue
				}
				if err := p.level(cfg, i).Validate(); err != nil {
					return surface{}, fmt.Errorf("L%d: %w", i+1, err)
				}
			}
		}
		refs = collectTrace(ctx, name, cfg)
		s.refs = refs
		s.hit = tables.hit
	}
	if curve != nil {
		tables := lineTables{byLine: map[int]*lineTable{}, open: func(ctx context.Context, line int, geoms []shape) (func(i int) cache.SizeRatio, error) {
			c, err := curve(ctx, line)
			if err != nil {
				return nil, err
			}
			return func(i int) cache.SizeRatio {
				return cache.SizeRatio{HitRatio: c.HitRatioAssoc(geoms[i].size, geoms[i].assoc)}
			}, nil
		}}
		for _, p := range flat {
			tables.add(p.level(cfg, 0))
		}
		for _, p := range deep {
			for i := range len(p.levels) + 1 {
				tables.add(p.level(cfg, i))
			}
		}
		s.hit = tables.hit
	}
	return s, nil
}

// lineTables holds one request's hit ratios by line size: every
// distinct (size, assoc) geometry the request may price at a line,
// collected before the pool starts. The first hit at a line opens it
// (one sim_pass over every size, or one curve lookup), and each
// geometry is then priced on its own first hit (a "sim:" table read,
// or one curve correction), so the pool's workers correct distinct
// geometries in parallel and a geometry nobody asks for costs
// nothing. Each step runs on its caller's context, so its spans nest
// under the sweep_point that paid for it; concurrent callers wait for
// it.
type lineTables struct {
	byLine map[int]*lineTable
	open   func(ctx context.Context, line int, geoms []shape) (func(i int) cache.SizeRatio, error)
}

// lineTable is one line size's geometries and, once opened, the
// pricer of geoms[i] and each geometry's ratio.
type lineTable struct {
	geoms  []shape // distinct, in enumeration order
	once   sync.Once
	price  func(i int) cache.SizeRatio
	err    error
	ratios []shapeRatio // per geoms entry, made when the line opens
}

// shapeRatio is one geometry's ratio, priced on its first hit.
type shapeRatio struct {
	once sync.Once
	cache.SizeRatio
}

// add records g's geometry and reports whether it is new.
func (ts *lineTables) add(g cache.Config) bool {
	t := ts.byLine[g.LineSize]
	if t == nil {
		t = &lineTable{}
		ts.byLine[g.LineSize] = t
	}
	k := shape{size: g.Size, assoc: g.Assoc}
	if slices.Contains(t.geoms, k) {
		return false
	}
	t.geoms = append(t.geoms, k)
	return true
}

// hit returns the hit ratio of a recorded geometry.
func (ts *lineTables) hit(ctx context.Context, size, line, assoc int) (float64, error) {
	t := ts.byLine[line]
	t.once.Do(func() {
		t.price, t.err = ts.open(ctx, line, t.geoms)
		t.ratios = make([]shapeRatio, len(t.geoms))
	})
	if t.err != nil {
		return 0, t.err
	}
	i := slices.Index(t.geoms, shape{size: size, assoc: assoc})
	r := &t.ratios[i]
	r.once.Do(func() { r.SizeRatio = t.price(i) })
	return r.HitRatio, r.Err
}

// shape is a cache's geometry at a known line size.
type shape struct {
	size, assoc int
}

// level returns p's cache at level i, counted from 0 at the top: L1
// at cfg.Assoc, and each deeper level at its own axes' associativity.
func (p point) level(cfg Config, i int) cache.Config {
	if i == 0 {
		return cache.Config{Size: p.cacheKB << 10, LineSize: p.line, Assoc: cfg.Assoc}
	}
	lp := p.levels[i-1]
	return cache.Config{Size: lp.kb << 10, LineSize: lp.line, Assoc: cfg.Levels[i-1].Assoc}
}

// collectTrace generates the request's trace, the first SimRefs
// references of workload name at cfg.Seed, in a trace_gen span.
func collectTrace(ctx context.Context, name string, cfg Config) []trace.Ref {
	_, span := obs.StartSpan(ctx, "trace_gen")
	defer span.End()
	span.SetArg("workload", name)
	span.SetArg("refs", cfg.SimRefs)
	return trace.Collect(trace.MustWorkload(name, cfg.Seed), cfg.SimRefs)
}

// locals returns a hierarchy point's per-level local hit ratios, top
// first, and its global hit ratio. Under "sim:" they come from a real
// cache.Hierarchy replay of the request's trace; every curve tier
// prices the levels off its curve via the LRU stack property instead.
func (s surface) locals(ctx context.Context, cfg Config, p point) ([]float64, float64, error) {
	if s.refs == nil {
		return curveLocals(ctx, s.hit, cfg, p)
	}
	cfgs := make([]cache.Config, len(p.levels)+1)
	for i := range cfgs {
		cfgs[i] = p.level(cfg, i)
	}
	h, err := cache.NewHierarchy(cfgs...)
	if err != nil {
		return nil, 0, err
	}
	for i, r := range s.refs {
		// Honor cancellation on long traces without paying a channel
		// read per reference.
		if i&0x3fff == 0 && ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		h.Access(r.Addr, r.Write)
	}
	st := h.Stats()
	return st.LocalHitRatios(), st.GlobalHitRatio(), nil
}
