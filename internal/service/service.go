// Package service implements tradeoffd's HTTP API: the unified
// tradeoff methodology (Eqs. 1–9) and the design-space sweep engine
// behind a JSON interface.
//
// Endpoints:
//
//	POST /v1/tradeoff  price one feature at a design point (ΔHR, the
//	                   miss-count/bus-width ratio r, Eq. 9 line-fill
//	                   time, optional Eq. 2 execution time)
//	POST /v1/sweep     full design-space sweep → JSON or CSV; hit
//	                   sources "model", "sim:<workload>", and the
//	                   single-pass miss-ratio curves "mrc:<workload>"
//	                   (exact) / "mrc~:<workload>" (SHARDS-sampled),
//	                   with curves memoized across requests
//	POST /v1/stall     trace-driven stall sweep: replay a workload
//	                   grid and return each point's stall.Result
//	                   decomposition → JSON or CSV
//	POST /v1/optimize  cost-constrained search over the joint
//	                   (hierarchy depth, cache sizes, line sizes, bus
//	                   width) space: every depth prefix of the level
//	                   axes competes under an area_budget (and optional
//	                   power_budget); returns the feasible designs with
//	                   the (delay, area, pins) Pareto frontier flagged
//	                   → JSON or CSV
//	GET  /healthz      liveness probe
//	GET  /metrics      JSON counters: requests, errors, cache
//	                   hits/misses/bytes, in-flight, per-endpoint
//	                   latency and evaluation counts; ?format=prom
//	                   renders the metrics registry as Prometheus text
//	                   with p50/p95/p99 request-duration quantiles
//	GET  /debug/pprof/ net/http/pprof profiling (only with
//	                   Options.Pprof / tradeoffd -pprof)
//
// Every request gets a correlation ID (X-Request-ID honored when
// well-formed, generated otherwise) echoed in the response and in the
// structured access-log line when Options.Logger is set. Request
// contexts carry obs.EngineStats, so the engine pools record
// queue-wait and evaluation time per job into the /metrics
// histograms.
//
// All POST endpoints are pure functions of their payloads and run on
// one generic pipeline (see endpoint.go): decode → defaults →
// validate → limits → canonical key → memo → run → encode. Responses
// are memoized in an engine.Memo LRU bounded by entries AND bytes,
// whose singleflight collapses concurrent identical requests into a
// single evaluation. Request contexts flow into the worker pools: a
// disconnected client cancels its in-flight sweep or replay. The
// server holds one simjob.Runner for its lifetime, so materialized
// workload traces are shared across /v1/stall requests.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"time"

	"tradeoff/internal/core"
	"tradeoff/internal/engine"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/simjob"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// maxBodyBytes bounds request payloads; a sweep config is a few
// hundred bytes, so 1 MiB is already generous.
const maxBodyBytes = 1 << 20

// Options configures a Server. The zero value is ready for production.
type Options struct {
	// CacheEntries bounds the response LRU's entry count (default 256).
	CacheEntries int
	// CacheBytes bounds the response LRU's total body bytes (default
	// 32 MiB), so a handful of huge CSV sweeps cannot pin megabytes
	// beyond the byte budget however few entries they are.
	CacheBytes int64
	// Workers sizes the sweep pool (default 0 = runtime.NumCPU()).
	Workers int
	// Limits bounds untrusted sweep payloads (zero value =
	// sweep.DefaultLimits).
	Limits sweep.Limits
	// StallLimits bounds untrusted stall-grid payloads (zero value =
	// simjob.DefaultLimits).
	StallLimits simjob.Limits
	// Logger, when non-nil, receives one structured access-log line per
	// request (method, path, status, duration, request ID).
	Logger *obs.Logger
	// Pprof registers net/http/pprof's profiling endpoints under
	// /debug/pprof/. Off by default: profiling handlers expose enough
	// internals that they are opt-in (tradeoffd's -pprof flag).
	Pprof bool
	// FlightSpans bounds the always-on flight recorder's span ring
	// (default 8192; negative disables the recorder entirely, which
	// also turns off exemplar capture and /debug/flight).
	FlightSpans int
	// SlowFactor is the tail-sampling threshold: a request slower than
	// SlowFactor × its endpoint's rolling p99 pins its full span tree
	// as an exemplar (default 8; only applies once the endpoint has
	// seen enough traffic for a meaningful p99).
	SlowFactor float64
	// SlowKeep bounds the exemplar store (default 16, oldest evicted
	// first; negative disables capture).
	SlowKeep int
	// HistoryInterval is the metrics-history snapshot cadence (default
	// 10s) and HistoryWindow the retention per series (default 1h);
	// together they size the fixed per-series rings.
	HistoryInterval time.Duration
	HistoryWindow   time.Duration
	// SLOs holds the per-endpoint objectives behind the tradeoffd_slo_*
	// gauges and burn-rate warnings; empty registers no SLO family and
	// leaves the slo key out of the JSON document.
	SLOs []obs.SLO
}

// cachedResponse is one memoized endpoint response: the exact bytes
// and content type to replay on a key match.
type cachedResponse struct {
	contentType string
	body        []byte
}

// Server is the tradeoffd HTTP service: declarative endpoints over the
// shared evaluation engines plus a response memo and a metrics
// registry.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	cache   *engine.Memo[cachedResponse]
	metrics *metrics
	stats   *obs.EngineStats
	reg     *obs.Registry  // every /metrics family, named once
	runner  *simjob.Runner // its analytic curves also serve /v1/sweep and /v1/optimize
	curves  *mrc.CurveCache

	// Observability tier 2 (flight recorder, metrics history, SLOs).
	now       func() time.Time // the clock history ticks, SLO burns and dump windows read
	epoch     time.Time        // flight-dump timestamp origin
	ring      *obs.SpanRing    // nil when the recorder is disabled
	exemplars *obs.Exemplars
	history   *obs.History
}

// New builds a Server with its routes registered.
func New(opts Options) *Server {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 256
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 32 << 20
	}
	if opts.Limits == (sweep.Limits{}) {
		opts.Limits = sweep.DefaultLimits
	}
	if opts.StallLimits == (simjob.Limits{}) {
		opts.StallLimits = simjob.DefaultLimits
	}
	if opts.FlightSpans == 0 {
		opts.FlightSpans = 8192
	}
	if opts.SlowFactor <= 0 {
		opts.SlowFactor = 8
	}
	if opts.SlowKeep == 0 {
		opts.SlowKeep = 16
	}
	if opts.HistoryInterval <= 0 {
		opts.HistoryInterval = 10 * time.Second
	}
	if opts.HistoryWindow <= 0 {
		opts.HistoryWindow = time.Hour
	}
	s := &Server{
		opts: opts,
		mux:  http.NewServeMux(),
		cache: engine.NewMemo(opts.CacheEntries, opts.CacheBytes, func(r cachedResponse) int64 {
			return int64(len(r.body) + len(r.contentType))
		}),
		metrics: newMetrics(),
		stats:   obs.NewEngineStats(),
		reg:     obs.NewRegistry(),
		runner:  simjob.NewRunner(),
		// Miss-ratio curves survive across /v1/sweep requests: 64 curves
		// (≈ a few sweeps' worth of line sizes) within 64 MiB.
		curves: mrc.NewCurveCache(64, 64<<20),
		now:    time.Now,
	}
	s.epoch = time.Now()
	if opts.FlightSpans > 0 {
		s.ring = obs.NewSpanRing(opts.FlightSpans)
		if opts.SlowKeep > 0 {
			s.exemplars = obs.NewExemplars(opts.SlowKeep)
		}
	}
	s.registerMetrics()
	s.history = obs.NewHistory(opts.HistoryInterval, opts.HistoryWindow, obs.NewRuntimeRegistry(), s.reg)
	s.mux.HandleFunc("/v1/tradeoff", s.metrics.instrument("/v1/tradeoff", handle(s, s.tradeoffEndpoint())))
	s.mux.HandleFunc("/v1/sweep", s.metrics.instrument("/v1/sweep", handle(s, s.sweepEndpoint())))
	s.mux.HandleFunc("/v1/stall", s.metrics.instrument("/v1/stall", handle(s, s.stallEndpoint())))
	s.mux.HandleFunc("/v1/optimize", s.metrics.instrument("/v1/optimize", handle(s, s.optimizeEndpoint())))
	s.mux.HandleFunc("/healthz", s.metrics.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// The observability surface itself stays uninstrumented, like
	// /metrics always has: meta-endpoints must not add series to the
	// documents they serve (the Prometheus golden pins that the
	// endpoint set is unchanged), and the dashboard's SSE stream would
	// distort any duration summary it appeared in.
	s.mux.HandleFunc("/metrics/history", s.handleHistory)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux.HandleFunc("/debug/slow", s.handleSlow)
	s.mux.HandleFunc("/debug/dash", s.handleDash)
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the root handler for an http.Server: the route mux
// behind the observability middleware (request IDs, engine stats,
// access logging).
func (s *Server) Handler() http.Handler { return s.withObs(s.mux) }

// requestSpanLimit bounds a single request's locally retained span
// tree: enough for any realistic sweep's span set to render in an
// exemplar, small enough that a pathological request cannot hold
// megabytes hostage. Spans past the limit still tee into the ring.
const requestSpanLimit = 512

// slowMinSamples is how much traffic an endpoint must have seen
// before its rolling p99 is trusted as a tail-sampling threshold; the
// first requests of a cold endpoint are not outliers, just cold.
const slowMinSamples = 32

// withObs is the outermost middleware. It assigns every request a
// correlation ID — honoring a well-formed client X-Request-ID,
// generating one otherwise — echoes it on the response, threads the
// engine instruments into the request context so the worker pools
// underneath record queue-wait and evaluation time, opens the
// request's root span on a per-request tracer that tees every
// completed span into the flight-recorder ring, applies the
// tail-based exemplar policy, and emits one wide-event access-log
// line per request when logging is configured — every dimension known
// at completion (endpoint, status, duration, response bytes,
// response-memo outcome, canonical-key hash, request ID) on a single
// line.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)

		ctx := obs.WithEngineStats(r.Context(), s.stats)
		ri := &reqInfo{}
		ctx = withReqInfo(ctx, ri)
		var tracer *obs.Tracer
		var span *obs.Span
		if s.ring != nil {
			tracer = obs.NewRequestTracer(s.ring, requestSpanLimit)
			ctx = obs.WithTracer(ctx, tracer)
			ctx, span = obs.StartSpan(ctx, "request")
			span.SetArg("path", r.URL.Path)
			span.SetArg("request_id", id)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			dur := time.Since(start)
			span.SetArg("status", sw.status)
			span.End()
			if tracer != nil {
				s.captureSlow(ri, id, tracer, start, dur)
			}
			if s.opts.Logger != nil {
				kv := []any{
					"method", r.Method,
					"path", r.URL.Path,
					"status", sw.status,
					"duration_us", dur.Microseconds(),
					"bytes", sw.bytes,
					"request_id", id,
				}
				if ri.endpoint != "" {
					kv = append(kv, "endpoint", ri.endpoint)
				}
				if ri.cache != "" {
					kv = append(kv, "cache", ri.cache)
				}
				if ri.key != "" {
					kv = append(kv, "key", ri.key)
				}
				s.opts.Logger.Info("request", kv...)
			}
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// captureSlow applies the tail-based exemplar policy after a request
// completes: once the endpoint's duration histogram holds enough
// samples for a meaningful p99, a request slower than SlowFactor ×
// that rolling p99 pins its full span tree into the exemplar store.
// The histogram already includes this request (instrument's deferred
// Observe runs before this outer defer), so the very request that
// moves the tail is judged against a tail that has seen it.
func (s *Server) captureSlow(ri *reqInfo, id string, tracer *obs.Tracer, start time.Time, dur time.Duration) {
	if s.exemplars == nil || ri.endpoint == "" {
		return
	}
	h := &s.metrics.endpoint(ri.endpoint).duration
	if h.Count() < slowMinSamples {
		return
	}
	p99 := h.Quantile(0.99)
	threshold := time.Duration(float64(p99) * s.opts.SlowFactor)
	if p99 <= 0 || dur <= threshold {
		return
	}
	s.exemplars.Add(obs.Exemplar{
		Endpoint:    ri.endpoint,
		RequestID:   id,
		Key:         ri.key,
		Time:        start,
		DurationUS:  dur.Microseconds(),
		P99US:       p99.Microseconds(),
		ThresholdUS: threshold.Microseconds(),
		Spans:       tracer.JSON(),
	})
	if s.opts.Logger != nil {
		s.opts.Logger.Warn("slow request pinned",
			"endpoint", ri.endpoint,
			"duration_us", dur.Microseconds(),
			"p99_us", p99.Microseconds(),
			"threshold_us", threshold.Microseconds(),
			"request_id", id,
		)
	}
}

// CacheHits returns the memoization hit count (for tests and ops).
func (s *Server) CacheHits() int64 { return s.metrics.cacheHits.Value() }

// TradeoffRequest is the POST /v1/tradeoff payload. Omitted fields
// take the same defaults as the tradeoff CLI flags.
type TradeoffRequest struct {
	Feature  string   `json:"feature"`             // bus, stall, wbuf or pipe
	HitRatio *float64 `json:"hit_ratio,omitempty"` // base hit ratio (default 0.95)
	Alpha    *float64 `json:"alpha,omitempty"`     // flush ratio (default 0.5)
	L        *float64 `json:"l,omitempty"`         // line size in bytes (default 32)
	D        *float64 `json:"d,omitempty"`         // bus width in bytes (default 4)
	BetaM    *float64 `json:"beta_m,omitempty"`    // memory cycle time (default 10)
	Phi      *float64 `json:"phi,omitempty"`       // stall: stalling factor (default 1)
	Q        *float64 `json:"q,omitempty"`         // pipe: readiness interval (default 2)
	Issue    *float64 `json:"issue,omitempty"`     // issue width (default 1 = Eq. 6)
	// Profile optionally supplies {E, R, W} so the response can include
	// the absolute Eq. (2) execution time of the base system.
	Profile *ProfileRequest `json:"profile,omitempty"`
}

// ProfileRequest is the optional application profile of Table 1.
type ProfileRequest struct {
	E float64 `json:"e"` // instructions executed
	R float64 `json:"r"` // bytes read on misses
	W float64 `json:"w"` // write-around miss count
}

// setDefaults fills nil fields with the CLI defaults so the canonical
// memoization key is independent of which defaults were spelled out.
func (t *TradeoffRequest) setDefaults() {
	def := func(p **float64, v float64) {
		if *p == nil {
			*p = &v
		}
	}
	def(&t.HitRatio, 0.95)
	def(&t.Alpha, 0.5)
	def(&t.L, 32)
	def(&t.D, 4)
	def(&t.BetaM, 10)
	def(&t.Phi, 1)
	def(&t.Q, 2)
	def(&t.Issue, 1)
}

// featureSpec maps the request's feature name onto the core spec —
// the same four names the tradeoff CLI accepts.
func (t *TradeoffRequest) featureSpec() (core.FeatureSpec, error) {
	switch t.Feature {
	case "bus":
		return core.FeatureSpec{Feature: core.FeatureDoubleBus}, nil
	case "stall":
		return core.FeatureSpec{Feature: core.FeaturePartialStall, Phi: *t.Phi}, nil
	case "wbuf":
		return core.FeatureSpec{Feature: core.FeatureWriteBuffers}, nil
	case "pipe":
		return core.FeatureSpec{Feature: core.FeaturePipelinedMemory, Q: *t.Q}, nil
	case "":
		return core.FeatureSpec{}, fmt.Errorf("missing feature (want bus, stall, wbuf or pipe)")
	default:
		return core.FeatureSpec{}, fmt.Errorf("unknown feature %q (want bus, stall, wbuf or pipe)", t.Feature)
	}
}

// TradeoffResponse prices the feature: Eq. (6) ΔHR, the Table 3
// miss-count ratio (the bus-width byte ratio for feature "bus"), and
// the pipelined-memory auxiliaries of Eq. (9).
type TradeoffResponse struct {
	Feature            string  `json:"feature"`
	MissCountRatio     float64 `json:"miss_count_ratio"` // r (Eq. 3 / Table 3)
	S                  float64 `json:"s"`                // Λh/Λm of the base system
	BaseHitRatio       float64 `json:"base_hit_ratio"`
	DeltaHR            float64 `json:"delta_hr"`
	EquivalentHitRatio float64 `json:"equivalent_hit_ratio"`
	Valid              bool    `json:"valid"`
	// BetaP is Eq. (9)'s pipelined line-fill time (feature "pipe").
	BetaP float64 `json:"beta_p,omitempty"`
	// CrossoverBetaM is the βm beyond which pipelining out-trades bus
	// doubling; omitted when infinite (L = 2D) or not applicable.
	CrossoverBetaM float64 `json:"crossover_beta_m,omitempty"`
	// Exec carries the Eq. (2) execution time when a profile was given.
	Exec *ExecResponse `json:"exec,omitempty"`
}

// ExecResponse is the absolute Eq. (2) evaluation of the base
// (full-blocking) system on the supplied profile.
type ExecResponse struct {
	ExecutionCycles   float64 `json:"execution_cycles"`    // Eq. (2)
	MemoryDelayCycles float64 `json:"memory_delay_cycles"` // stall terms of Eq. (2)
	Misses            float64 `json:"misses"`              // Λm = R/L + W (Eq. 1)
}

// tradeoffEndpoint registers POST /v1/tradeoff on the shared pipeline.
// Validation happens inside run (featureSpec and the core domain
// checks), so malformed JSON is a 400 and out-of-domain parameters a
// 422 — exactly the pre-pipeline split.
func (s *Server) tradeoffEndpoint() endpoint[TradeoffRequest, TradeoffResponse] {
	return endpoint[TradeoffRequest, TradeoffResponse]{
		name: "/v1/tradeoff",
		decode: func(body []byte) (TradeoffRequest, error) {
			var req TradeoffRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return req, fmt.Errorf("decoding request: %w", err)
			}
			req.setDefaults()
			return req, nil
		},
		key:        func(req TradeoffRequest) ([]byte, error) { return json.Marshal(req) },
		run:        func(_ context.Context, req TradeoffRequest) (TradeoffResponse, error) { return evalTradeoff(req) },
		encodeJSON: func(res TradeoffResponse) any { return res },
	}
}

// evalTradeoff prices one feature request — the pure function behind
// POST /v1/tradeoff.
func evalTradeoff(req TradeoffRequest) (TradeoffResponse, error) {
	spec, err := req.featureSpec()
	if err != nil {
		return TradeoffResponse{}, err
	}
	var tr core.Tradeoff
	if *req.Issue > 1 {
		tr, err = core.MultiIssueTradeoff(spec, *req.HitRatio, *req.Alpha, *req.L, *req.D, *req.BetaM, *req.Issue)
	} else {
		tr, err = core.FeatureTradeoff(spec, *req.HitRatio, *req.Alpha, *req.L, *req.D, *req.BetaM)
	}
	if err != nil {
		return TradeoffResponse{}, err
	}
	resp := TradeoffResponse{
		Feature:            tr.Feature.String(),
		MissCountRatio:     tr.R,
		S:                  tr.S,
		BaseHitRatio:       tr.BaseHR,
		DeltaHR:            tr.DeltaHR,
		EquivalentHitRatio: tr.NewHR,
		Valid:              tr.Valid,
	}
	if spec.Feature == core.FeaturePipelinedMemory {
		resp.BetaP = core.BetaP(*req.BetaM, *req.Q, *req.L, *req.D)
		if x, err := core.PipelineCrossover(*req.Q, *req.L, *req.D); err == nil && !math.IsInf(x, 0) {
			resp.CrossoverBetaM = x
		}
	}
	if req.Profile != nil {
		p := core.Params{
			E: req.Profile.E, R: req.Profile.R, W: req.Profile.W,
			Alpha: *req.Alpha, D: *req.D, L: *req.L, BetaM: *req.BetaM,
		}
		p = p.WithFullStall()
		if err := p.Validate(); err != nil {
			return TradeoffResponse{}, err
		}
		resp.Exec = &ExecResponse{
			ExecutionCycles:   core.ExecutionTime(p),
			MemoryDelayCycles: core.MemoryDelayCycles(p),
			Misses:            p.Misses(),
		}
	}
	return resp, nil
}

// SweepResponse is the JSON shape of POST /v1/sweep. ErrorBound is
// present only when the sweep was answered by the analytic model tier
// after mode resolution: the committed maximum absolute hit-ratio
// error of that workload's model against the exact MRC tier
// (sweep.ErrorBound).
type SweepResponse struct {
	Count       int            `json:"count"`
	ParetoCount int            `json:"pareto_count"`
	ErrorBound  float64        `json:"error_bound,omitempty"`
	Designs     []sweep.Design `json:"designs"`
}

// caches bundles the server's shared memoization state for the sweep
// engines: miss-ratio curves and the analytic curves /v1/stall's model
// tier also prices from.
func (s *Server) caches() sweep.Caches {
	return sweep.Caches{Curves: s.curves, Models: s.runner.Models()}
}

// errorBound is the committed hit-ratio error of a sweep's designs.
// The effective hit source is uniform across a sweep, so the first
// design speaks for all of them.
func errorBound(ds []sweep.Design) float64 {
	if len(ds) == 0 {
		return 0
	}
	return sweep.ErrorBound(ds[0].HitSource)
}

// sweepEndpoint registers POST /v1/sweep on the shared pipeline.
func (s *Server) sweepEndpoint() endpoint[sweep.Config, []sweep.Design] {
	return endpoint[sweep.Config, []sweep.Design]{
		name:   "/v1/sweep",
		decode: sweep.ParseConfig,
		limits: func(cfg sweep.Config) error { return cfg.CheckLimits(s.opts.Limits) },
		key:    sweep.Config.Canonical,
		run: func(ctx context.Context, cfg sweep.Config) ([]sweep.Design, error) {
			return sweep.RunCaches(ctx, cfg, s.opts.Workers, s.caches())
		},
		encodeJSON: func(ds []sweep.Design) any {
			return SweepResponse{Count: len(ds), ParetoCount: sweep.ParetoCount(ds), ErrorBound: errorBound(ds), Designs: ds}
		},
		encodeCSV: func(w io.Writer, ds []sweep.Design) error { return sweep.WriteCSV(w, ds) },
	}
}

// StallResponse is the JSON shape of POST /v1/stall. ErrorBounds maps
// each workload that was priced analytically after mode resolution to
// its committed hit-ratio error budget — the miss counts behind those
// points inherit it.
type StallResponse struct {
	Count       int                  `json:"count"`
	ErrorBounds map[string]float64   `json:"error_bounds,omitempty"`
	Points      []simjob.PointResult `json:"points"`
}

// stallEndpoint registers POST /v1/stall on the shared pipeline.
func (s *Server) stallEndpoint() endpoint[simjob.Grid, []simjob.PointResult] {
	return endpoint[simjob.Grid, []simjob.PointResult]{
		name:   "/v1/stall",
		decode: simjob.ParseGrid,
		limits: func(g simjob.Grid) error { return g.CheckLimits(s.opts.StallLimits) },
		key:    simjob.Grid.Canonical,
		run: func(ctx context.Context, g simjob.Grid) ([]simjob.PointResult, error) {
			return s.runner.RunGrid(ctx, g, s.opts.Workers)
		},
		encodeJSON: func(ps []simjob.PointResult) any {
			resp := StallResponse{Count: len(ps), Points: ps}
			for _, p := range ps {
				if b := sweep.ErrorBound(p.Source); b > 0 {
					if resp.ErrorBounds == nil {
						resp.ErrorBounds = make(map[string]float64)
					}
					resp.ErrorBounds[p.Program] = b
				}
			}
			return resp
		},
		encodeCSV: func(w io.Writer, ps []simjob.PointResult) error { return simjob.WriteCSV(w, ps) },
	}
}

// OptimizeResponse is the JSON shape of POST /v1/optimize. Total
// counts every design point enumerated across all hierarchy depths;
// Feasible counts (and Designs carries) the ones within the budgets,
// with the (delay, area, pins) Pareto frontier flagged. ErrorBound
// carries the analytic tier's committed hit-ratio error, like
// SweepResponse.
type OptimizeResponse struct {
	Total       int            `json:"total"`
	Feasible    int            `json:"feasible"`
	ParetoCount int            `json:"pareto_count"`
	ErrorBound  float64        `json:"error_bound,omitempty"`
	Designs     []sweep.Design `json:"designs"`
}

// optimizeEndpoint registers POST /v1/optimize on the shared pipeline:
// like every POST endpoint it is memoized on the canonical config and
// cancelled by a disconnected client.
func (s *Server) optimizeEndpoint() endpoint[sweep.OptimizeConfig, sweep.OptimizeResult] {
	return endpoint[sweep.OptimizeConfig, sweep.OptimizeResult]{
		name:   "/v1/optimize",
		decode: sweep.ParseOptimizeConfig,
		limits: func(cfg sweep.OptimizeConfig) error { return cfg.CheckLimits(s.opts.Limits) },
		key:    sweep.OptimizeConfig.Canonical,
		run: func(ctx context.Context, cfg sweep.OptimizeConfig) (sweep.OptimizeResult, error) {
			return sweep.OptimizeCaches(ctx, cfg, s.opts.Workers, s.caches())
		},
		encodeJSON: func(res sweep.OptimizeResult) any {
			return OptimizeResponse{
				Total:       res.Total,
				Feasible:    res.Feasible,
				ParetoCount: sweep.ParetoCount(res.Designs),
				ErrorBound:  errorBound(res.Designs),
				Designs:     res.Designs,
			}
		},
		encodeCSV: func(w io.Writer, res sweep.OptimizeResult) error { return sweep.WriteOptimizeCSV(w, res.Designs) },
	}
}

// xvalLineSizes is the rotating line-size schedule of the continuous
// cross-validation loop — the paper's Table 3 span.
var xvalLineSizes = []int{16, 32, 64, 128}

// xvalRefs is the trace length of one validation pass: long enough to
// exercise every generator's steady state, short enough that a pass
// costs milliseconds.
const xvalRefs = 30_000

// RunXVal runs the continuous cross-validation loop until ctx is
// cancelled: one pass immediately, then one per interval, rotating
// through every covered workload × Table-3 line size. Each pass
// compares the analytic model against the exact MRC tier (plus a
// set-associative replay leg, inside model.CrossValidate's "xval_pass"
// span) and publishes the errors as live gauges on /metrics. A pass
// failure is recorded and logged, never fatal — the loop is telemetry,
// not control flow. Intervals <= 0 disable the loop.
func (s *Server) RunXVal(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for i := 0; ; i++ {
		s.xvalPass(ctx, i)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// xvalPass runs pass i of the rotation and records its outcome.
func (s *Server) xvalPass(ctx context.Context, i int) {
	ws := trace.Workloads()
	w := ws[i%len(ws)]
	line := xvalLineSizes[(i/len(ws))%len(xvalLineSizes)]
	ctx = obs.WithEngineStats(ctx, s.stats)
	rep, err := model.CrossValidate(ctx, w, 1994, xvalRefs, line, 2, nil)
	if err != nil {
		if s.opts.Logger != nil && ctx.Err() == nil {
			s.opts.Logger.Warn("xval pass failed", "workload", w, "line_size", line, "err", err.Error())
		}
		return
	}
	s.metrics.recordXVal(w, xvalSample{
		LineSize: rep.LineSize,
		MaxAbs:   rep.MaxAbs,
		MeanAbs:  rep.MeanAbs,
		Budget:   rep.Budget,
		Within:   rep.Within,
	})
	if s.opts.Logger != nil && !rep.Within {
		s.opts.Logger.Warn("xval over budget",
			"workload", w, "line_size", line,
			"max_abs_err", fmt.Sprintf("%.4f", rep.MaxAbs),
			"budget", fmt.Sprintf("%.4f", rep.Budget))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n") // a failed write means the client left
}

// mustJSON marshals a response the server itself constructed; a
// failure is a programming error.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg}) // best-effort error body
}
