package sweep

import (
	"context"
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
// flat geometries and hierarchy points alike replay read-only.
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
// "sim:" generates it here, before any pool worker starts, and replays
// it through a fresh cache per call; "mrc:" and "mrc~:" generate it
// lazily, inside the memo flight of the first curve that misses the
// cache, and profile every missing line size from it. Either way the
// hit function is safe for concurrent use by the pool. It assumes
// Validate has passed, so every workload name is known.
func resolveSurface(ctx context.Context, cfg Config, caches Caches) surface {
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
		refs := collectTrace(ctx, name, cfg)
		s.refs = refs
		s.hit = func(_ context.Context, size, line int) (float64, error) {
			c, err := cache.New(cache.Config{Size: size, LineSize: line, Assoc: cfg.Assoc})
			if err != nil {
				return 0, err
			}
			return cache.Measure(c, refs).HitRatio, nil
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
	return s
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
