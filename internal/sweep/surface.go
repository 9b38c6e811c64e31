package sweep

import (
	"context"
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
// effective source name stamped on every Design, the (size, line)
// hit-ratio function, and, for "sim:" only, the request's trace, which
// flat geometries and hierarchy points alike read.
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
// simulates every size of a line in one cache.HitRatios pass, run
// once per line size by the first geometry that asks for it; "mrc:"
// and "mrc~:" generate it lazily, inside the memo flight of the first
// curve that misses the cache, and profile every missing line size
// from it. Either way the hit function is safe for concurrent use by
// the pool. It assumes Validate has passed, so every workload name is
// known.
//
// flat holds the points of a flat sweep or search, nil for a
// hierarchy sweep. Under "sim:" their (size, line) geometries are the
// only ones hit answers, and each is checked with cache.Config's
// Validate in enumeration order before the trace is generated, so an
// invalid one fails the sweep at once with the first one's error.
func resolveSurface(ctx context.Context, cfg Config, caches Caches, flat []point) (surface, error) {
	s := surface{name: cfg.EffectiveHitSource()}
	prefix, name, _ := SourceWorkload(s.name)
	var curve func(ctx context.Context, line int) (*mrc.Curve, error)
	switch prefix {
	case "":
		m := missratio.DefaultModel()
		s.hit = func(_ context.Context, size, line int) (float64, error) {
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
		tables := make(map[int]*simTable)
		for _, p := range flat {
			size := p.cacheKB << 10
			t := tables[p.line]
			if t == nil {
				t = &simTable{}
				tables[p.line] = t
			}
			if slices.Contains(t.sizes, size) {
				continue
			}
			if err := (cache.Config{Size: size, LineSize: p.line, Assoc: cfg.Assoc}).Validate(); err != nil {
				return surface{}, err
			}
			t.sizes = append(t.sizes, size)
		}
		refs := collectTrace(ctx, name, cfg)
		s.refs = refs
		s.hit = func(ctx context.Context, size, line int) (float64, error) {
			return tables[line].hit(ctx, name, refs, line, cfg.Assoc, size)
		}
	}
	if curve != nil {
		s.hit = func(ctx context.Context, size, line int) (float64, error) {
			c, err := curve(ctx, line)
			if err != nil {
				return 0, err
			}
			return c.HitRatioAssoc(size, cfg.Assoc), nil
		}
	}
	return s, nil
}

// simTable is one line size's "sim:" hit ratios, by cache size.
type simTable struct {
	sizes  []int // the line's distinct cache sizes in bytes, in enumeration order
	once   sync.Once
	ratios []cache.SizeRatio // per sizes entry
	err    error
}

// hit returns the hit ratio of a size-byte cache of line-byte lines.
// The first call runs the line's one pass over every size in a
// sim_pass span, on the caller's context, so the span nests under the
// sweep_point that paid for it; concurrent calls wait for it.
func (t *simTable) hit(ctx context.Context, workload string, refs []trace.Ref, line, assoc, size int) (float64, error) {
	t.once.Do(func() {
		_, span := obs.StartSpan(ctx, "sim_pass")
		defer span.End()
		span.SetArg("workload", workload)
		span.SetArg("line_size", line)
		span.SetArg("refs", len(refs))
		span.SetArg("sizes", len(t.sizes))
		t.ratios, t.err = cache.HitRatios(ctx, refs, line, assoc, t.sizes)
	})
	if t.err != nil {
		return 0, t.err
	}
	r := t.ratios[slices.Index(t.sizes, size)]
	return r.HitRatio, r.Err
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
		return curveLocals(ctx, s.hit, p)
	}
	cfgs := make([]cache.Config, 0, len(p.levels)+1)
	cfgs = append(cfgs, cache.Config{Size: p.cacheKB << 10, LineSize: p.line, Assoc: cfg.Assoc})
	for i, lp := range p.levels {
		cfgs = append(cfgs, cache.Config{Size: lp.kb << 10, LineSize: lp.line, Assoc: cfg.Levels[i].Assoc})
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
