// Package simjob is the parallel orchestrator for trace-driven stall
// measurements — the simulation-side sibling of the analytic sweep
// engine in internal/sweep.
//
// A Runner materializes each named workload trace once into a shared
// read-only []trace.Ref (memoized by (program, seed, refs)), fans
// (feature × cache × memory × write-buffer) design points out across
// the shared engine.Map pool, and returns results in enumeration
// order, so parallel output is byte-identical to a serial replay.
// Optionally it keeps one warmed cache per (trace, geometry) and
// clones it per measurement, so cold-start misses are paid once
// instead of per design point.
//
// The consumers are cmd/figures and cmd/cachesim (via their -workers
// flags) and the tradeoffd service's POST /v1/stall endpoint.
package simjob

import (
	"context"
	"fmt"
	"sync/atomic"
	"unsafe"

	"tradeoff/internal/cache"
	"tradeoff/internal/engine"
	"tradeoff/internal/model"
	"tradeoff/internal/obs"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

// TraceSpec names a synthetic workload trace: which workload model
// (a program or "zipf"), which seed, how many references. Equal specs
// materialize identical traces, which is what makes the spec a safe
// memoization key.
type TraceSpec struct {
	Program string `json:"program"`
	Seed    uint64 `json:"seed"`
	Refs    int    `json:"refs"`
}

// Materialize generates the trace the spec names.
func (s TraceSpec) Materialize() ([]trace.Ref, error) {
	src, err := trace.NewWorkload(s.Program, s.Seed)
	if err != nil {
		return nil, err
	}
	return trace.Collect(src, s.Refs), nil
}

// key is the spec's engine.Memo key.
func (s TraceSpec) key() string {
	return fmt.Sprintf("%s|%d|%d", s.Program, s.Seed, s.Refs)
}

// TraceCache memoizes materialized traces by spec on a byte-bounded
// engine.Memo; its singleflight makes concurrent first requests for
// the same spec generate it exactly once. The cached slices are shared
// read-only across every replay that uses them; callers must not
// mutate what Get returns.
type TraceCache struct {
	memo      *engine.Memo[[]trace.Ref]
	generated atomic.Int64
}

// traceCacheBytes bounds the references a TraceCache keeps resident.
// Specs come from request payloads (a fresh seed is a fresh trace), so
// without a bound every seed ever asked for would stay pinned; 256 MiB
// holds any realistic working set (a 24-trace stall grid of 10k
// references is under 6 MiB) and evicts least recently used traces
// beyond it.
const traceCacheBytes = 256 << 20

// NewTraceCache returns an empty trace cache.
func NewTraceCache() *TraceCache { return newTraceCache(traceCacheBytes) }

// newTraceCache returns an empty trace cache holding at most maxBytes
// of references.
func newTraceCache(maxBytes int64) *TraceCache {
	return &TraceCache{memo: engine.NewMemo(0, maxBytes, func(refs []trace.Ref) int64 {
		return int64(len(refs)) * int64(unsafe.Sizeof(trace.Ref{}))
	})}
}

// Get returns the memoized trace for spec, materializing it on first
// use. Concurrent callers for the same spec share one generation.
func (tc *TraceCache) Get(ctx context.Context, spec TraceSpec) ([]trace.Ref, error) {
	refs, _, err := tc.memo.Do(ctx, spec.key(), func(context.Context) ([]trace.Ref, error) {
		tc.generated.Add(1)
		return spec.Materialize()
	})
	return refs, err
}

// Generated returns how many distinct traces have been materialized —
// the observability hook the memoization tests (and metrics) read.
func (tc *TraceCache) Generated() int64 { return tc.generated.Load() }

// Job is one design point to measure: a workload trace replayed under
// one stall configuration.
type Job struct {
	Trace TraceSpec
	Cfg   stall.Config
}

// Options tunes a Run.
type Options struct {
	// Workers bounds the pool; <= 0 selects runtime.NumCPU().
	Workers int

	// Warm replays each trace once through a fresh cache per distinct
	// (trace, cache geometry), memoizes that warmed state, and clones
	// it for every measurement sharing the geometry. Results then
	// exclude cold-start misses, so they differ from (but are exactly
	// as deterministic as) the default cold replay.
	Warm bool
}

// Runner owns the shared memoization state — materialized traces and
// warmed caches — across any number of Run calls. A single Runner is
// safe for concurrent use; the tradeoffd service holds one for its
// whole lifetime so traces survive across requests.
type Runner struct {
	traces *TraceCache
	warm   *engine.Memo[*cache.Cache]
	models *model.Cache // analytic curves for the grid's model tier
}

// NewRunner returns a Runner with empty caches.
func NewRunner() *Runner {
	return &Runner{
		traces: NewTraceCache(),
		warm:   engine.NewMemo[*cache.Cache](0, 0, nil),
		models: model.NewCache(64, 16<<20),
	}
}

// Traces exposes the runner's trace cache (for metrics and tests).
func (r *Runner) Traces() *TraceCache { return r.traces }

// warmClone returns a clone of the warmed cache for (spec, geometry),
// warming it on first use by streaming the trace through a fresh cache
// and resetting its statistics. Concurrent first requests share one
// warm-up via the memo's singleflight.
func (r *Runner) warmClone(ctx context.Context, spec TraceSpec, cc cache.Config, refs []trace.Ref) (*cache.Cache, error) {
	key := fmt.Sprintf("%s|%+v", spec.key(), cc)
	c, _, err := r.warm.Do(ctx, key, func(context.Context) (*cache.Cache, error) {
		c, err := cache.New(cc)
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			c.Access(ref.Addr, ref.Write)
		}
		c.ResetStats()
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return c.Clone(), nil
}

// measure replays one job, through a warmed clone when opts.Warm.
func (r *Runner) measure(ctx context.Context, job Job, opts Options) (stall.Result, error) {
	refs, err := r.traces.Get(ctx, job.Trace)
	if err != nil {
		return stall.Result{}, err
	}
	if opts.Warm {
		c, err := r.warmClone(ctx, job.Trace, job.Cfg.Cache, refs)
		if err != nil {
			return stall.Result{}, err
		}
		return stall.RunWarm(job.Cfg, c, refs)
	}
	return stall.Run(job.Cfg, refs)
}

// MeasureHierarchy replays refs references of the named workload
// through an N-level cache.Hierarchy built from levels (top first) and
// returns its stats. The trace is served by the runner's memoized
// TraceCache, so a hierarchy sweep over many geometries of one
// workload materializes the trace once — this is the sweep.Caches
// .Measure seam the tradeoffd service wires in for "sim:" hierarchy
// sweeps.
func (r *Runner) MeasureHierarchy(ctx context.Context, workload string, seed uint64, refs int, levels []cache.Config) (cache.HierarchyStats, error) {
	trc, err := r.traces.Get(ctx, TraceSpec{Program: workload, Seed: seed, Refs: refs})
	if err != nil {
		return cache.HierarchyStats{}, err
	}
	h, err := cache.NewHierarchy(levels...)
	if err != nil {
		return cache.HierarchyStats{}, err
	}
	for i, ref := range trc {
		// The replay is single-threaded; honor cancellation on long
		// traces without paying a channel read per reference.
		if i&0x3fff == 0 && ctx.Err() != nil {
			return cache.HierarchyStats{}, ctx.Err()
		}
		h.Access(ref.Addr, ref.Write)
	}
	return h.Stats(), nil
}

// Run measures every job on the shared engine.Map pool and returns
// results indexed like jobs — deterministic regardless of worker count
// or completion order. The context cancels in-flight work: a
// disconnected HTTP client or an interrupted CLI stops the pool early
// with ctx.Err().
func (r *Runner) Run(ctx context.Context, jobs []Job, opts Options) ([]stall.Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("simjob: no jobs")
	}
	ctx = obs.WithSpanName(ctx, "sim_job")
	return engine.Map(ctx, jobs, opts.Workers, func(ctx context.Context, job Job) (stall.Result, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("program", job.Trace.Program)
			s.SetArg("feature", job.Cfg.Feature.String())
		}
		return r.measure(ctx, job, opts)
	})
}

// RunRefs measures one caller-supplied trace under each configuration
// on the shared pool — the cmd/cachesim path, where the trace comes
// from a file or a one-off generator rather than a named program. The
// refs slice is shared read-only across workers.
func RunRefs(ctx context.Context, refs []trace.Ref, cfgs []stall.Config, workers int) ([]stall.Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("simjob: no configurations")
	}
	ctx = obs.WithSpanName(ctx, "sim_feature")
	return engine.Map(ctx, cfgs, workers, func(ctx context.Context, cfg stall.Config) (stall.Result, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("feature", cfg.Feature.String())
		}
		return stall.Run(cfg, refs)
	})
}
