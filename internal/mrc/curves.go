package mrc

import (
	"context"
	"fmt"

	"tradeoff/internal/engine"
	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// Spec identifies one miss-ratio curve: the first Refs references of a
// named workload at Seed, profiled at one line size, exactly or via
// SHARDS sampling. The caller supplies that trace (Profile,
// CurveCache.Get), so one generated trace can serve every line size.
// Equal specs yield equal curves, which is what makes the CurveCache
// memoization sound.
type Spec struct {
	Workload string // one of trace.Workloads()
	Seed     uint64 // workload generator seed
	Refs     int    // references to profile (must be positive)
	LineSize int    // block size in bytes (positive power of two)
	Sampled  bool   // SHARDS sampling instead of the exact profiler
	Sampler  SamplerConfig
}

// Validate reports specs outside the profiler's domain. The sampler
// config is only checked when Sampled is set.
func (s Spec) Validate() error {
	if unknown := trace.ValidWorkloads([]string{s.Workload}); len(unknown) > 0 {
		return fmt.Errorf("mrc: unknown workload %q (want one of %v)", s.Workload, trace.Workloads())
	}
	if s.Refs < 1 {
		return fmt.Errorf("mrc: spec refs %d, want >= 1", s.Refs)
	}
	if err := validLineSize(s.LineSize); err != nil {
		return err
	}
	if s.Sampled {
		return s.Sampler.Validate()
	}
	return nil
}

// key is the memoization key: every field that changes the curve.
func (s Spec) key() string {
	if s.Sampled {
		return fmt.Sprintf("%s|%d|%d|%d|~%g|%d",
			s.Workload, s.Seed, s.Refs, s.LineSize, s.Sampler.Rate, s.Sampler.Budget)
	}
	return fmt.Sprintf("%s|%d|%d|%d", s.Workload, s.Seed, s.Refs, s.LineSize)
}

// Profile performs the single pass the spec describes over refs,
// which must be the spec's trace: the first Refs references of
// Workload at Seed. It opens one "mrc_pass" span, so a -trace export
// counts exactly the passes paid for.
func (s Spec) Profile(ctx context.Context, refs []trace.Ref) (*Curve, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "mrc_pass")
	span.SetArg("workload", s.Workload)
	span.SetArg("line_size", s.LineSize)
	span.SetArg("refs", s.Refs)
	span.SetArg("sampled", s.Sampled)
	defer span.End()
	if s.Sampled {
		return ProfileSampledRefs(refs, s.LineSize, s.Sampler)
	}
	return ProfileRefs(refs, s.LineSize)
}

// CurveCache memoizes curves by Spec on an engine.Memo, so a sweep —
// or concurrent sweeps sharing one cache — pays one pass per distinct
// (workload, line size) spec, with singleflight collapsing concurrent
// requests for the same spec.
type CurveCache struct {
	memo *engine.Memo[*Curve]
}

// NewCurveCache returns a cache bounded to maxEntries curves and
// maxBytes of resident curve data; bounds <= 0 are unlimited, matching
// engine.NewMemo.
func NewCurveCache(maxEntries int, maxBytes int64) *CurveCache {
	return &CurveCache{memo: engine.NewMemo(maxEntries, maxBytes, (*Curve).MemoryBytes)}
}

// Get returns the curve for spec, profiling it on first use over the
// trace refs returns (see Spec.Profile). refs is called only on a
// miss, inside the memo flight and with its context, so a caller can
// generate the trace lazily and share it across line sizes; a sweep
// whose curves are all resident generates none. Flights for different
// specs run concurrently, so refs must be safe for concurrent use.
// The boolean reports whether the curve was shared (memo hit or
// joined flight) rather than profiled by this call.
func (cc *CurveCache) Get(ctx context.Context, spec Spec, refs func(context.Context) []trace.Ref) (*Curve, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	return cc.memo.Do(ctx, spec.key(), func(ctx context.Context) (*Curve, error) {
		return spec.Profile(ctx, refs(ctx))
	})
}

// Len returns the number of cached curves.
func (cc *CurveCache) Len() int { return cc.memo.Len() }
