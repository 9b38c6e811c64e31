package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tradeoff/internal/obs"
)

// metrics holds the server's instruments. They are per-Server, so
// tests and embedders can run several servers side by side. Each is
// named once, on the server's obs.Registry (registerMetrics), which
// renders GET /metrics?format=prom and feeds the metrics history; the
// default JSON document is rendered by hand from the same instruments
// (writeMetricsJSON).
type metrics struct {
	requests    atomic.Int64 // requests accepted, all endpoints
	errors      atomic.Int64 // responses with status >= 400
	cacheHits   atomic.Int64 // memoization hits (cache or shared flight)
	cacheMisses atomic.Int64 // memoization misses
	inFlight    atomic.Int64 // requests currently being served

	// endpoints holds one endpointStats per instrumented route, sorted
	// by route. endpoint replaces the slice rather than mutating it, so
	// collectors range over a snapshot without holding endpointsMu.
	endpointsMu sync.Mutex
	endpoints   []*endpointStats

	// xval is the latest cross-validation sample per workload from the
	// continuous model-vs-exact loop (Server.RunXVal); xvalPasses
	// counts the passes.
	xvalMu     sync.Mutex
	xval       map[string]xvalSample
	xvalPasses atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{xval: make(map[string]xvalSample)}
}

// endpointStats is one route's instruments.
type endpointStats struct {
	route       string
	labels      []string     // {route}: the endpoint label value
	requests    atomic.Int64 // requests the route accepted
	errors      atomic.Int64 // its responses with status >= 400
	evaluations atomic.Int64 // runs of its evaluation: requests - evaluations is what the memo absorbed
	duration    obs.Histogram
}

// endpoint returns (creating on first use) the route's instruments.
func (m *metrics) endpoint(route string) *endpointStats {
	m.endpointsMu.Lock()
	defer m.endpointsMu.Unlock()
	eps := m.endpoints
	i, found := slices.BinarySearchFunc(eps, route, func(ep *endpointStats, route string) int {
		return strings.Compare(ep.route, route)
	})
	if found {
		return eps[i]
	}
	ep := &endpointStats{route: route, labels: []string{route}}
	m.endpoints = slices.Insert(slices.Clip(eps), i, ep) // Clip: insert into a copy
	return ep
}

// endpointList returns the routes' instruments sorted by route.
func (m *metrics) endpointList() []*endpointStats {
	m.endpointsMu.Lock()
	defer m.endpointsMu.Unlock()
	return m.endpoints
}

// xvalSample is one workload's latest cross-validation outcome: the
// model's hit-ratio error against the exact MRC tier at the pass's
// line size, next to the committed budget.
type xvalSample struct {
	LineSize int     `json:"line_size"`
	MaxAbs   float64 `json:"max_abs_err"`
	MeanAbs  float64 `json:"mean_abs_err"`
	Budget   float64 `json:"error_budget"`
	Within   bool    `json:"within_budget"`
}

// recordXVal stores the latest sample for a workload and advances the
// pass counter.
func (m *metrics) recordXVal(workload string, s xvalSample) {
	m.xvalMu.Lock()
	m.xval[workload] = s
	m.xvalMu.Unlock()
	m.xvalPasses.Add(1)
}

// xvalSnapshot copies the current cross-validation samples in sorted
// workload order.
func (m *metrics) xvalSnapshot() ([]string, []xvalSample) {
	m.xvalMu.Lock()
	defer m.xvalMu.Unlock()
	names := make([]string, 0, len(m.xval))
	for name := range m.xval {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := make([]xvalSample, len(names))
	for i, name := range names {
		samples[i] = m.xval[name]
	}
	return names, samples
}

// registerMetrics names every server instrument on s.reg, in the
// order the Prometheus exposition renders them: the service counters
// and gauges, the cross-validation gauges, the per-endpoint counters
// and durations, the engine instruments and, when objectives are
// configured, the SLO gauges.
func (s *Server) registerMetrics() {
	r, m := s.reg, s.metrics
	counter := func(name, help string, v func() int64) {
		r.Add(obs.Family{Name: name, Help: help, Kind: obs.KindCounter, Collect: obs.CollectInt(v)})
	}
	gauge := func(name, help string, v func() int64) {
		r.Add(obs.Family{Name: name, Help: help, Kind: obs.KindGauge, Collect: obs.CollectInt(v)})
	}
	counter("requests_total", "Requests accepted across all endpoints.", m.requests.Load)
	counter("errors_total", "Responses with status >= 400.", m.errors.Load)
	counter("cache_hits", "Response-memo hits (cache or shared flight).", m.cacheHits.Load)
	counter("cache_misses", "Response-memo misses.", m.cacheMisses.Load)
	gauge("cache_bytes", "Bytes held by the response memo.", s.cache.Bytes)
	gauge("in_flight", "Requests currently being served.", m.inFlight.Load)

	counter("xval_passes_total", "Cross-validation passes completed by the model-vs-exact loop.", m.xvalPasses.Load)
	for _, g := range []struct {
		name, help string
		get        func(xvalSample) float64
	}{
		{"xval_max_abs_error", "Largest |model - exact| hit-ratio error of the workload's latest validation pass.", func(s xvalSample) float64 { return s.MaxAbs }},
		{"xval_mean_abs_error", "Mean |model - exact| hit-ratio error of the workload's latest validation pass.", func(s xvalSample) float64 { return s.MeanAbs }},
		{"xval_error_budget", "Committed hit-ratio error budget for the workload (model.ErrorBound).", func(s xvalSample) float64 { return s.Budget }},
	} {
		r.Add(obs.Family{Name: g.name, Help: g.help, Kind: obs.KindGauge, Labels: []string{"workload"}, Collect: func(emit func(obs.Point)) {
			names, samples := m.xvalSnapshot()
			for i := range names {
				emit(obs.Point{Labels: names[i : i+1], Value: g.get(samples[i])})
			}
		}})
	}

	for _, c := range []struct {
		name string
		get  func(*endpointStats) *atomic.Int64
	}{
		{"endpoint_requests", func(ep *endpointStats) *atomic.Int64 { return &ep.requests }},
		{"endpoint_errors", func(ep *endpointStats) *atomic.Int64 { return &ep.errors }},
		{"endpoint_evaluations", func(ep *endpointStats) *atomic.Int64 { return &ep.evaluations }},
	} {
		r.Add(obs.Family{Name: c.name, Kind: obs.KindCounter, Labels: []string{"endpoint"}, Collect: func(emit func(obs.Point)) {
			for _, ep := range m.endpointList() {
				emit(obs.Point{Labels: ep.labels, Value: float64(c.get(ep).Load())})
			}
		}})
	}
	r.Add(obs.Family{Name: "request_duration", Help: "Request duration by endpoint.", Kind: obs.KindSummary, Labels: []string{"endpoint"}, Collect: func(emit func(obs.Point)) {
		for _, ep := range m.endpointList() {
			emit(obs.Point{Labels: ep.labels, Hist: &ep.duration})
		}
	}})

	s.stats.Register(r)
	if len(s.opts.SLOs) > 0 {
		registerSLO(r, func() []sloStatus { return s.sloStatuses(s.now()) })
	}
}

// statusWriter captures the response status for error accounting
// while keeping the wrapped writer's optional interfaces reachable:
// Unwrap lets http.ResponseController (and through it the net/http
// internals) find Flusher, Hijacker and friends on the underlying
// writer, and Flush forwards directly so streaming handlers behind
// instrument still flush.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64 // response body bytes written (wide-event access log)
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController,
// restoring every optional interface (Flusher, Hijacker, deadlines,
// io.ReaderFrom sendfile paths) the wrapper would otherwise swallow.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush implements http.Flusher by forwarding through
// ResponseController, which follows Unwrap chains; a writer that
// cannot flush makes this a no-op rather than an error.
func (w *statusWriter) Flush() {
	_ = http.NewResponseController(w.ResponseWriter).Flush()
}

// instrument wraps an endpoint handler with request, error, in-flight
// and duration accounting under the given route — the one place every
// route's timing flows through. A panicking handler does not distort
// the gauges: the deferred accounting restores in_flight, counts the
// request as a 500 and re-panics for the server's own recovery.
func (m *metrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ep := m.endpoint(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		m.inFlight.Add(1)
		ep.requests.Add(1)
		if ri := reqInfoFrom(r.Context()); ri != nil {
			ri.endpoint = route // the wide-event log's endpoint dimension
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			p := recover()
			m.inFlight.Add(-1)
			status := sw.status
			if p != nil {
				status = http.StatusInternalServerError
			}
			if status >= 400 {
				m.errors.Add(1)
				ep.errors.Add(1)
			}
			ep.duration.Observe(time.Since(start))
			if p != nil {
				panic(p)
			}
		}()
		h(sw, r)
	}
}

// handleMetrics serves GET /metrics: the JSON document by default,
// Prometheus text exposition of the registry with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w, "tradeoffd_") // a failed write means the client left
		return
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json or prom)", f), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var buf bytes.Buffer
	s.writeMetricsJSON(&buf)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client left
}

// writeMetricsJSON renders the default /metrics document: one key per
// line in sorted order, the endpoints nested by route (each route's
// counters and its duration count, total, max and microsecond total),
// the latest cross-validation samples under "xval" and, when
// objectives are configured, their burn-rate state under "slo".
func (s *Server) writeMetricsJSON(buf *bytes.Buffer) {
	m := s.metrics
	fmt.Fprintf(buf, "{\n\"cache_bytes\": %d,\n\"cache_hits\": %d,\n\"cache_misses\": %d,\n\"endpoints\": {",
		s.cache.Bytes(), m.cacheHits.Load(), m.cacheMisses.Load())
	for i, ep := range m.endpointList() {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(buf, "%q: {\"duration_count\": %d, \"duration_ns_max\": %d, \"duration_ns_total\": %d, \"errors\": %d, \"evaluations\": %d, \"latency_us_total\": %d, \"requests\": %d}",
			ep.route, ep.duration.Count(), ep.duration.Max().Nanoseconds(), ep.duration.Sum().Nanoseconds(),
			ep.errors.Load(), ep.evaluations.Load(), ep.duration.Sum().Microseconds(), ep.requests.Load())
	}
	fmt.Fprintf(buf, "},\n\"errors_total\": %d,\n\"in_flight\": %d,\n\"requests_total\": %d,\n",
		m.errors.Load(), m.inFlight.Load(), m.requests.Load())
	if len(s.opts.SLOs) > 0 {
		slo, err := json.Marshal(s.sloStatuses(s.now()))
		if err != nil {
			slo = []byte("[]")
		}
		fmt.Fprintf(buf, "\"slo\": %s,\n", slo)
	}
	m.xvalMu.Lock()
	xval, err := json.Marshal(m.xval) // map keys render sorted
	m.xvalMu.Unlock()
	if err != nil {
		xval = []byte("{}")
	}
	fmt.Fprintf(buf, "\"xval\": %s,\n\"xval_passes\": %d\n}\n", xval, m.xvalPasses.Load())
}
