// Package simjob is the parallel orchestrator for trace-driven stall
// measurements — the simulation-side sibling of the analytic sweep
// engine in internal/sweep.
//
// A Runner materializes each named workload trace once into a shared
// read-only []trace.Ref (memoized by (program, seed, refs)) and groups
// the (feature × cache × memory × write-buffer) design points of a Run
// by (trace, cache geometry). Which references hit, fill or flush
// depends only on the trace and the cache, so each group runs its
// cache over the trace once (stall.Simulate) and replays only the
// timing per design point (stall.Replay). The groups fan out across
// the shared engine.Map pool, each group's replays fan out again over
// a pool of their own, and results come back in job order, so
// parallel output is byte-identical to a serial replay. With
// Options.Warm a group first warms its own cache with one pass over
// the trace, so cold-start misses are excluded from every point.
//
// RunRefs takes the same path for one caller-supplied trace. The
// consumers are cmd/figures and cmd/cachesim (via their -workers
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

// Materialize generates the trace the spec names, in a trace_gen span
// on ctx.
func (s TraceSpec) Materialize(ctx context.Context) ([]trace.Ref, error) {
	return trace.Generate(ctx, s.Program, s.Seed, s.Refs)
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
	refs, _, err := tc.memo.Do(ctx, spec.key(), func(ctx context.Context) ([]trace.Ref, error) {
		tc.generated.Add(1)
		return spec.Materialize(ctx)
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
	// Workers bounds the group pool and, within each group, the
	// replay pool; <= 0 selects runtime.NumCPU(). At most Workers
	// groups, and so at most Workers cache passes' outcomes, are live
	// at once.
	Workers int

	// Warm streams each trace once through its group's fresh cache and
	// resets the statistics before the measured pass, so results
	// exclude cold-start misses. They differ from (but are exactly as
	// deterministic as) the default cold replay. The warmed cache lives
	// only as long as its group's measurement.
	Warm bool
}

// Runner owns the state shared across any number of Run calls:
// materialized traces and analytic curves. A single Runner is safe for
// concurrent use; the tradeoffd service holds one for its whole
// lifetime so traces survive across requests.
type Runner struct {
	traces *TraceCache
	models *model.Cache // analytic curves for the grid's model tier
}

// NewRunner returns a Runner with empty caches.
func NewRunner() *Runner {
	return &Runner{
		traces: NewTraceCache(),
		// Analytic curves are tiny (knot tables); the cache mostly
		// saves the µs-scale rebuild per (workload, line size).
		models: model.NewCache(64, 16<<20),
	}
}

// Traces exposes the runner's trace cache (for metrics and tests).
func (r *Runner) Traces() *TraceCache { return r.traces }

// Models exposes the runner's analytic-curve cache, so a server can
// price its sweeps from the same curves its stall grids use.
func (r *Runner) Models() *model.Cache { return r.models }

// group is the jobs of one Run that share a trace and a cache
// configuration, and with them one cache pass; members index the
// Run's jobs in job order.
type group struct {
	trace   TraceSpec
	cache   cache.Config
	members []int
}

// groupJobs partitions jobs by (trace, cache configuration), groups in
// order of first appearance.
func groupJobs(jobs []Job) []group {
	type key struct {
		trace TraceSpec
		cache cache.Config
	}
	index := make(map[key]int)
	var groups []group
	for i, job := range jobs {
		k := key{job.Trace, job.Cfg.Cache}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, group{trace: job.Trace, cache: job.Cfg.Cache})
		}
		groups[g].members = append(groups[g].members, i)
	}
	return groups
}

// traceFunc returns the trace a group's jobs name.
type traceFunc func(context.Context, TraceSpec) ([]trace.Ref, error)

// measure runs one group: it gets the trace, simulates the group's
// cache over it once (after a warm-up pass when opts.Warm is set), and
// replays every member's timing from the shared outcomes, writing each
// result to the member's slot in out. The replays fan out over a pool
// of opts.Workers of their own, one sim_replay span each, so a grid of
// fewer geometries than workers still keeps every worker busy.
func measure(ctx context.Context, g group, jobs []Job, out []stall.Result, opts Options, traceOf traceFunc) error {
	refs, err := traceOf(ctx, g.trace)
	if err != nil {
		return err
	}
	c, err := cache.New(g.cache)
	if err != nil {
		return err
	}
	if opts.Warm {
		for _, ref := range refs {
			c.Access(ref.Addr, ref.Write)
		}
		c.ResetStats()
	}
	outcomes := stall.Simulate(c, refs)
	ctx = obs.WithSpanName(ctx, "sim_replay")
	_, err = engine.Map(ctx, g.members, opts.Workers, func(ctx context.Context, i int) (struct{}, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("feature", jobs[i].Cfg.Feature.String())
		}
		res, err := stall.Replay(jobs[i].Cfg, outcomes, refs)
		out[i] = res
		return struct{}{}, err
	})
	return err
}

// run measures jobs on the shared engine.Map pool, one pool item (and
// one sim_job span) per distinct (trace, cache configuration) whose
// replays run as one sim_replay item each (see measure), and returns
// results indexed like jobs — deterministic regardless of worker count
// or completion order. traceOf supplies each group's trace. Every
// job's configuration is validated, in job order, before the pool
// starts, so an invalid point costs no trace and no cache pass.
func run(ctx context.Context, jobs []Job, opts Options, traceOf traceFunc) ([]stall.Result, error) {
	for _, job := range jobs {
		if err := job.Cfg.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]stall.Result, len(jobs))
	ctx = obs.WithSpanName(ctx, "sim_job")
	_, err := engine.Map(ctx, groupJobs(jobs), opts.Workers, func(ctx context.Context, g group) (struct{}, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("program", g.trace.Program)
			s.SetArg("cache_kb", g.cache.Size>>10)
			s.SetArg("line_bytes", g.cache.LineSize)
			s.SetArg("configs", len(g.members))
		}
		return struct{}{}, measure(ctx, g, jobs, out, opts, traceOf)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Run measures every job, each group's named trace coming from the
// runner's trace cache (see run). The context cancels in-flight work:
// a disconnected HTTP client or an interrupted CLI stops the pool
// early with ctx.Err().
func (r *Runner) Run(ctx context.Context, jobs []Job, opts Options) ([]stall.Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("simjob: no jobs")
	}
	return run(ctx, jobs, opts, r.traces.Get)
}

// RunRefs measures one caller-supplied trace under each configuration
// — the cmd/cachesim path, where the trace comes from a file or a
// one-off generator rather than a named program. Configurations that
// share a cache share its one cache pass, exactly as Run's groups do;
// the refs slice is shared read-only across workers.
func RunRefs(ctx context.Context, refs []trace.Ref, cfgs []stall.Config, workers int) ([]stall.Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("simjob: no configurations")
	}
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Cfg: cfg}
	}
	return run(ctx, jobs, Options{Workers: workers}, func(context.Context, TraceSpec) ([]trace.Ref, error) {
		return refs, nil
	})
}
