// Observability tier 2: the request-info seam behind the wide-event
// access log, the metrics-history series registrations, the SLO
// burn-rate layer, and the /debug/flight, /debug/slow and
// /metrics/history handlers. The always-on middleware half lives in
// service.go (withObs, captureSlow); the live dashboard in dash.go.

package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tradeoff/internal/obs"
)

// reqInfo collects the wide-event access log's per-request dimensions
// as the request moves through the middleware stack: instrument fills
// the endpoint, the endpoint pipeline fills the canonical-key hash and
// memo outcome, and withObs reads everything back at completion. One
// goroutine writes each field before the handler returns, and withObs
// reads only after ServeHTTP returns, so no locking is needed.
type reqInfo struct {
	endpoint string // instrumented route, e.g. "/v1/sweep"
	key      string // canonical-request key hash (fnv64a hex)
	cache    string // response-memo outcome: "hit" or "miss"
}

type reqInfoKeyType struct{}

var reqInfoKey reqInfoKeyType

// withReqInfo threads the request-info collector into the context.
func withReqInfo(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey, ri)
}

// reqInfoFrom returns the context's request-info collector, or nil.
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey).(*reqInfo)
	return ri
}

// keyHash condenses a memoization key into the 16-hex-char fnv64a
// digest the access log and exemplars carry: stable across restarts,
// grep-able, and free of request-payload bytes.
func keyHash(key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // fnv's Write cannot fail
	var sum [8]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// endpointSeries maps a route onto its history-series prefix:
// "/v1/sweep" → "endpoint_v1_sweep", following the /metrics snake_case
// scheme.
func endpointSeries(route string) string {
	var b strings.Builder
	b.WriteString("endpoint")
	for _, r := range route {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			if !strings.HasSuffix(b.String(), "_") {
				b.WriteByte('_')
			}
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// registerSeries wires every metrics-history series: the Go runtime
// collector, the service-level counters and gauges, the engine
// instruments, and one p50/p99/count/requests/errors group per
// registered endpoint. Runs once in New after the routes (and thus
// the endpoint maps) exist.
func (s *Server) registerSeries() {
	h := s.history
	obs.RegisterRuntimeSeries(h)

	h.Register("requests_total", func() float64 { return float64(s.metrics.requests.Value()) })
	h.Register("errors_total", func() float64 { return float64(s.metrics.errors.Value()) })
	h.Register("in_flight", func() float64 { return float64(s.metrics.inFlight.Value()) })
	h.Register("cache_bytes", func() float64 { return float64(s.cache.Bytes()) })
	h.Register("memo_hit_ratio", func() float64 {
		hits, misses := s.metrics.cacheHits.Value(), s.metrics.cacheMisses.Value()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	h.Register("xval_max_abs_error", func() float64 {
		_, _, samples := s.metrics.xvalSnapshot()
		var max float64
		for _, smp := range samples {
			if smp.MaxAbs > max {
				max = smp.MaxAbs
			}
		}
		return max
	})

	h.RegisterHistogram(s.stats.Eval)
	h.RegisterHistogram(s.stats.QueueWait)
	h.RegisterCounter(s.stats.MemoHit)
	h.RegisterCounter(s.stats.MemoMiss)
	h.RegisterCounter(s.stats.MemoShared)

	// Per-endpoint groups. Routes are fixed at construction, so the
	// duration map is complete by the time this runs; names are
	// computed, which the metricreg analyzer deliberately skips (it
	// checks constant registrations only).
	s.metrics.durationsMu.Lock()
	routes := make([]string, 0, len(s.metrics.durations))
	for name := range s.metrics.durations {
		routes = append(routes, name)
	}
	s.metrics.durationsMu.Unlock()
	for _, route := range routes {
		route := route
		prefix := endpointSeries(route)
		hist := s.metrics.duration(route)
		ep := s.metrics.endpointVars(route)
		h.Register(prefix+"_p50_ns", func() float64 { return float64(hist.Quantile(0.5).Nanoseconds()) })
		h.Register(prefix+"_p99_ns", func() float64 { return float64(hist.Quantile(0.99).Nanoseconds()) })
		h.Register(prefix+"_count", func() float64 { return float64(hist.Count()) })
		h.Register(prefix+"_requests", func() float64 {
			return float64(ep.Get("requests").(*expvar.Int).Value())
		})
		h.Register(prefix+"_errors", func() float64 {
			return float64(ep.Get("errors").(*expvar.Int).Value())
		})
	}
}

// sloWindows are the two burn-rate horizons of the multi-window SRE
// alerting scheme: the 5m window catches fast burns, the 1h window
// slow sustained ones.
var sloWindows = []struct {
	label string
	d     time.Duration
}{
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// sloStatus is one endpoint objective's live burn-rate state — the
// JSON shape under /metrics "slo" and the source of the
// tradeoffd_slo_* gauges.
type sloStatus struct {
	Endpoint      string  `json:"endpoint"`
	P99TargetNS   int64   `json:"p99_target_ns,omitempty"`
	ErrorBudget   float64 `json:"error_budget,omitempty"`
	LatencyBurn5m float64 `json:"latency_burn_5m"`
	LatencyBurn1h float64 `json:"latency_burn_1h"`
	ErrorBurn5m   float64 `json:"error_burn_5m"`
	ErrorBurn1h   float64 `json:"error_burn_1h"`
	Burning       bool    `json:"burning"`
}

// sloStatuses computes every configured objective's burn rates from
// the history rings at now. Latency burns score the window's worst
// rolling p99 against the target; error burns score the windowed
// error rate (request/error deltas) against the budget. An endpoint
// with too little history burns 0 — absence of evidence is not an
// alert.
func (s *Server) sloStatuses(now time.Time) []sloStatus {
	out := make([]sloStatus, 0, len(s.opts.SLOs))
	for _, slo := range s.opts.SLOs {
		prefix := endpointSeries(slo.Endpoint)
		st := sloStatus{
			Endpoint:    slo.Endpoint,
			P99TargetNS: slo.P99.Nanoseconds(),
			ErrorBudget: slo.ErrRate,
		}
		burns := make([]float64, 0, 4)
		for i, w := range sloWindows {
			since := now.Add(-w.d)
			var latency, errBurn float64
			if slo.P99 > 0 {
				if mx, ok := s.history.Max(prefix+"_p99_ns", since); ok {
					latency = obs.LatencyBurnRate(time.Duration(mx), slo.P99)
				}
			}
			if slo.ErrRate > 0 {
				rf, rl, okR := s.history.Delta(prefix+"_requests", since)
				ef, el, okE := s.history.Delta(prefix+"_errors", since)
				if okR && okE {
					errBurn = obs.ErrorBurnRate(rl.V-rf.V, el.V-ef.V, slo.ErrRate)
				}
			}
			if i == 0 {
				st.LatencyBurn5m, st.ErrorBurn5m = latency, errBurn
			} else {
				st.LatencyBurn1h, st.ErrorBurn1h = latency, errBurn
			}
			burns = append(burns, latency, errBurn)
		}
		for _, b := range burns {
			if b > 1 {
				st.Burning = true
			}
		}
		out = append(out, st)
	}
	return out
}

// sloDoc renders the burn-rate state as the raw JSON value embedded in
// the expvar /metrics document.
func (s *Server) sloDoc(now time.Time) []byte {
	data, err := json.Marshal(s.sloStatuses(now))
	if err != nil {
		return []byte("[]") // sloStatus cannot fail to marshal
	}
	return data
}

// writeSLOProm appends the tradeoffd_slo_* gauge blocks to the
// Prometheus exposition: burn rates labeled by endpoint and window,
// plus each objective's targets and a 0/1 burning flag. Ordering
// follows the configured SLO list, so fixed state renders fixed bytes
// (pinned by a golden test).
func (s *Server) writeSLOProm(buf *bytes.Buffer) {
	sts := s.sloStatuses(s.now())
	promSLOGauges(buf, sts)
}

// promSLOGauges writes the SLO gauge blocks for the given statuses —
// split from writeSLOProm so the golden test can render fixed
// statuses without a clock.
func promSLOGauges(buf *bytes.Buffer, sts []sloStatus) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	buf.WriteString("# HELP tradeoffd_slo_latency_burn_rate Windowed worst p99 over its SLO target (>1 = out of budget).\n")
	buf.WriteString("# TYPE tradeoffd_slo_latency_burn_rate gauge\n")
	for _, st := range sts {
		if st.P99TargetNS == 0 {
			continue
		}
		fmt.Fprintf(buf, "tradeoffd_slo_latency_burn_rate{endpoint=%q,window=\"5m\"} %s\n", st.Endpoint, f(st.LatencyBurn5m))
		fmt.Fprintf(buf, "tradeoffd_slo_latency_burn_rate{endpoint=%q,window=\"1h\"} %s\n", st.Endpoint, f(st.LatencyBurn1h))
	}
	buf.WriteString("# HELP tradeoffd_slo_error_burn_rate Windowed error rate over the SLO budget (>1 = budget exhausts early).\n")
	buf.WriteString("# TYPE tradeoffd_slo_error_burn_rate gauge\n")
	for _, st := range sts {
		if st.ErrorBudget == 0 {
			continue
		}
		fmt.Fprintf(buf, "tradeoffd_slo_error_burn_rate{endpoint=%q,window=\"5m\"} %s\n", st.Endpoint, f(st.ErrorBurn5m))
		fmt.Fprintf(buf, "tradeoffd_slo_error_burn_rate{endpoint=%q,window=\"1h\"} %s\n", st.Endpoint, f(st.ErrorBurn1h))
	}
	buf.WriteString("# HELP tradeoffd_slo_p99_target_seconds The endpoint's p99 latency objective.\n")
	buf.WriteString("# TYPE tradeoffd_slo_p99_target_seconds gauge\n")
	for _, st := range sts {
		if st.P99TargetNS == 0 {
			continue
		}
		fmt.Fprintf(buf, "tradeoffd_slo_p99_target_seconds{endpoint=%q} %s\n", st.Endpoint, f(float64(st.P99TargetNS)/1e9))
	}
	buf.WriteString("# HELP tradeoffd_slo_error_budget The endpoint's allowed error fraction.\n")
	buf.WriteString("# TYPE tradeoffd_slo_error_budget gauge\n")
	for _, st := range sts {
		if st.ErrorBudget == 0 {
			continue
		}
		fmt.Fprintf(buf, "tradeoffd_slo_error_budget{endpoint=%q} %s\n", st.Endpoint, f(st.ErrorBudget))
	}
	buf.WriteString("# HELP tradeoffd_slo_burning 1 when any burn rate of the endpoint exceeds 1.\n")
	buf.WriteString("# TYPE tradeoffd_slo_burning gauge\n")
	for _, st := range sts {
		v := 0
		if st.Burning {
			v = 1
		}
		fmt.Fprintf(buf, "tradeoffd_slo_burning{endpoint=%q} %d\n", st.Endpoint, v)
	}
}

// RunHistory runs the metrics-history scheduler until ctx is
// cancelled: one snapshot tick immediately (so /metrics/history and
// the dashboard have data from boot), then one per configured
// interval, each followed by the SLO burn check. tradeoffd starts
// this next to RunXVal.
func (s *Server) RunHistory(ctx context.Context) {
	t := time.NewTicker(s.history.Interval())
	defer t.Stop()
	for {
		s.obsTick(s.now())
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// obsTick runs one observability cycle at now: snapshot every history
// series, then warn (structured, rate-limited by the tick cadence)
// for every objective currently burning.
func (s *Server) obsTick(now time.Time) {
	s.history.Tick(now)
	if len(s.opts.SLOs) == 0 || s.opts.Logger == nil {
		return
	}
	for _, st := range s.sloStatuses(now) {
		if !st.Burning {
			continue
		}
		s.opts.Logger.Warn("slo burning",
			"endpoint", st.Endpoint,
			"latency_burn_5m", fmt.Sprintf("%.2f", st.LatencyBurn5m),
			"latency_burn_1h", fmt.Sprintf("%.2f", st.LatencyBurn1h),
			"error_burn_5m", fmt.Sprintf("%.2f", st.ErrorBurn5m),
			"error_burn_1h", fmt.Sprintf("%.2f", st.ErrorBurn1h),
		)
	}
}

// handleFlight serves GET /debug/flight?last=30s: the flight
// recorder's retained spans from the last window as a Chrome
// trace_event JSON array of balanced B/E pairs (loadable in
// chrome://tracing or Perfetto, checkable by cmd/tracecheck).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.ring == nil {
		httpError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	last := 30 * time.Second
	if q := r.URL.Query().Get("last"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad last %q (want a positive duration like 30s)", q))
			return
		}
		last = d
	}
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client left mid-dump.
	_ = obs.WriteFlight(w, s.ring.Snapshot(s.now().Add(-last)), s.epoch)
}

// slowResponse is the GET /debug/slow JSON shape.
type slowResponse struct {
	Captured  int64          `json:"captured"` // total ever captured, incl. evicted
	Kept      int            `json:"kept"`
	Exemplars []obs.Exemplar `json:"exemplars"` // newest first
}

// handleSlow serves GET /debug/slow: the retained tail-based
// exemplars, newest first, each carrying the slow request's full span
// tree and the p99 threshold it tripped.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.exemplars == nil {
		httpError(w, http.StatusNotFound, "exemplar capture disabled")
		return
	}
	ex := s.exemplars.Snapshot()
	if ex == nil {
		ex = []obs.Exemplar{}
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(mustJSON(slowResponse{
		Captured:  s.exemplars.Captured(),
		Kept:      len(ex),
		Exemplars: ex,
	})) // a failed write means the client left
}

// handleHistory serves GET /metrics/history?series=a,b&window=5m: the
// named series' retained samples (all series when the parameter is
// absent) within the window (full retention when absent) as one JSON
// document.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var names []string
	if q := r.URL.Query().Get("series"); q != "" {
		for _, name := range strings.Split(q, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	var since time.Time // zero = full retention
	if q := r.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad window %q (want a positive duration like 5m)", q))
			return
		}
		since = s.now().Add(-d)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.history.WriteJSON(w, names, since) // a failed write means the client left
}
