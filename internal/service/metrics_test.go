package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// TestStatusWriterForwardsFlush is the streaming regression test: a
// handler behind instrument must be able to flush through to the
// underlying writer (statusWriter used to swallow http.Flusher).
func TestStatusWriterForwardsFlush(t *testing.T) {
	m := newMetrics()
	h := m.instrument("/stream", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("wrapped writer does not advertise http.Flusher")
		}
		_, _ = w.Write([]byte("chunk"))
		w.(http.Flusher).Flush()
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}

	// The same must hold for code using http.ResponseController, which
	// follows Unwrap chains to the real writer.
	rec2 := httptest.NewRecorder()
	h2 := m.instrument("/stream2", func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController flush: %v", err)
		}
	})
	h2(rec2, httptest.NewRequest(http.MethodGet, "/stream2", nil))
	if !rec2.Flushed {
		t.Fatal("ResponseController flush did not reach the underlying writer")
	}
}

// TestInstrumentPanicRestoresGauges is the panic regression test: a
// panicking handler must not leak in_flight, must count a 500 and a
// duration sample, and the panic must keep propagating (net/http's
// own recovery owns the connection teardown).
func TestInstrumentPanicRestoresGauges(t *testing.T) {
	m := newMetrics()
	h := m.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/boom", nil))
	}()
	if recovered != "kaboom" {
		t.Fatalf("panic did not propagate: %v", recovered)
	}
	if got := m.inFlight.Load(); got != 0 {
		t.Fatalf("in_flight leaked: %d", got)
	}
	if got := m.errors.Load(); got != 1 {
		t.Fatalf("errors = %d, want 1 (panic counts as 500)", got)
	}
	if got := m.endpoint("/boom").errors.Load(); got != 1 {
		t.Fatalf("endpoint errors = %d, want 1", got)
	}
	if got := m.endpoint("/boom").duration.Count(); got != 1 {
		t.Fatalf("duration samples = %d, want 1 (the sample must not be lost)", got)
	}
}

// setGoldenMetricsState gives s the fixed, hand-built metrics state
// both /metrics goldens render: every value below is deterministic, so
// the rendered bytes are too.
func setGoldenMetricsState(s *Server) {
	s.metrics.requests.Add(9)
	s.metrics.errors.Add(2)
	s.metrics.cacheHits.Add(3)
	s.metrics.cacheMisses.Add(4)
	ep := s.metrics.endpoint("/v1/sweep")
	ep.requests.Add(6)
	ep.errors.Add(1)
	ep.evaluations.Add(5)
	for _, d := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond,
	} {
		ep.duration.Observe(d)
	}
	s.stats.Eval.Observe(3 * time.Millisecond)
	s.stats.Eval.Observe(5 * time.Millisecond)
	s.stats.QueueWait.Observe(250 * time.Microsecond)
	s.stats.MemoHit.Add(7)
	s.stats.MemoMiss.Add(2)
	s.stats.MemoShared.Add(1)
	s.cache.Put("k", cachedResponse{contentType: "t", body: []byte("0123456789")})
	s.metrics.recordXVal("nasa7", xvalSample{LineSize: 32, MaxAbs: 0.0625, MeanAbs: 0.03125, Budget: 0.1, Within: true})
	s.metrics.recordXVal("zipf", xvalSample{LineSize: 64, MaxAbs: 0.015625, MeanAbs: 0.0078125, Budget: 0.04, Within: true})
}

// checkGolden compares body against testdata/name, rewriting the file
// first under -update-golden.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update-golden?): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("%s differs from golden\ngot:\n%s\nwant:\n%s", name, body, want)
	}
}

// TestPrometheusGolden pins the Prometheus exposition bytes for a
// fixed metrics state, so the text format cannot drift silently.
// Regenerate with -update-golden (shared with the endpoint goldens).
func TestPrometheusGolden(t *testing.T) {
	s := New(Options{})
	setGoldenMetricsState(s)

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	checkGolden(t, "metrics_golden.prom", rec.Body.Bytes())
}

// TestMetricsJSONGolden pins the default /metrics JSON bytes: the
// Prometheus golden's fixed state plus an SLO layer whose burn rates
// come from two hand-ticked history snapshots at a fixed clock, so
// the document's layout (endpoints nested by route, the xval and slo
// sub-documents, the xval_passes key) cannot drift silently.
func TestMetricsJSONGolden(t *testing.T) {
	slos, err := obs.ParseSLOs("sweep:p99<5ms,err<10%;stall:p99<2s")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{SLOs: slos, HistoryInterval: 10 * time.Second, HistoryWindow: time.Hour})
	now := obsBase.Add(20 * time.Second)
	s.now = func() time.Time { return now }
	s.history.Tick(obsBase)
	setGoldenMetricsState(s)
	s.history.Tick(obsBase.Add(10 * time.Second))

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", rec.Body.Bytes())
	}
	checkGolden(t, "metrics_golden.json", rec.Body.Bytes())
}

// TestXValLoop runs two passes of the continuous cross-validation
// rotation against the live model and MRC tiers, then checks the
// errors surface as labeled gauges in the Prometheus exposition and
// as the "xval" document in the JSON one — the acceptance check
// for the model-vs-exact loop.
func TestXValLoop(t *testing.T) {
	s := New(Options{})
	ctx := context.Background()
	s.xvalPass(ctx, 0)
	s.xvalPass(ctx, 1)

	ws := trace.Workloads()
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "tradeoffd_xval_passes_total 2") {
		t.Fatalf("pass counter not exported:\n%s", body)
	}
	for _, w := range ws[:2] {
		for _, gauge := range []string{"tradeoffd_xval_max_abs_error", "tradeoffd_xval_mean_abs_error", "tradeoffd_xval_error_budget"} {
			prefix := gauge + `{workload="` + w + `"} `
			if !strings.Contains(body, prefix) {
				t.Errorf("no %s series for %q:\n%s", gauge, w, body)
			}
		}
	}

	rec = httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc struct {
		Passes int64                 `json:"xval_passes"`
		XVal   map[string]xvalSample `json:"xval"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Passes != 2 || len(doc.XVal) != 2 {
		t.Fatalf("xval_passes = %d, samples = %d, want 2 and 2", doc.Passes, len(doc.XVal))
	}
	for _, w := range ws[:2] {
		sm, ok := doc.XVal[w]
		if !ok {
			t.Fatalf("no xval sample for %q: %v", w, doc.XVal)
		}
		if !sm.Within || sm.MaxAbs > sm.Budget {
			t.Errorf("%s: live pass over budget: max %.4f budget %.4f", w, sm.MaxAbs, sm.Budget)
		}
		if sm.LineSize != xvalLineSizes[0] {
			t.Errorf("%s: line size %d, want rotation start %d", w, sm.LineSize, xvalLineSizes[0])
		}
	}
}

// TestPrometheusQuantilesNonZero is the acceptance check: after an
// endpoint has served real traffic, its summary must report non-zero
// p50/p95/p99.
func TestPrometheusQuantilesNonZero(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	resp, body := get(t, ts.URL+"/metrics?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		prefix := `tradeoffd_request_duration_seconds{endpoint="/v1/tradeoff",quantile="` + q + `"} `
		val := ""
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, prefix) {
				val = strings.TrimPrefix(line, prefix)
			}
		}
		if val == "" {
			t.Fatalf("no %sq series in exposition:\n%s", prefix, body)
		}
		if val == "0" {
			t.Fatalf("p%s is zero after traffic:\n%s", q, body)
		}
	}
	// The engine histograms saw the sweep pool's jobs... for /v1/tradeoff
	// there is no pool, but the memo counters must have advanced.
	if !strings.Contains(string(body), "tradeoffd_engine_memo_hits 2") {
		t.Fatalf("memo hit counter not exported:\n%s", body)
	}
}

// TestMetricsFormatRejected covers the format negotiation of /metrics.
func TestMetricsFormatRejected(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/metrics?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentScrapes hammers /metrics (both formats) while real
// requests are in flight and the history ticks; run under -race this
// pins down the lock-free histogram, the counter paths and concurrent
// collection of one registry.
func TestConcurrentScrapes(t *testing.T) {
	s, ts := newTestServer(t)
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				s.obsTick(time.Now())
			}
		}
	}()
	defer func() { close(stop); <-ticked }()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, _ := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tradeoff status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, body := get(t, ts.URL+"/metrics")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("metrics status %d", resp.StatusCode)
					return
				}
				if !json.Valid(body) {
					t.Errorf("scrape %d returned invalid JSON:\n%s", i, body)
					return
				}
				if resp, _ := get(t, ts.URL+"/metrics?format=prom"); resp.StatusCode != http.StatusOK {
					t.Errorf("prom scrape status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRequestIDs covers the correlation-ID middleware: honored when
// well-formed, regenerated when hostile, always echoed.
func TestRequestIDs(t *testing.T) {
	_, ts := newTestServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("well-formed id not honored: %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "bad id with spaces" || len(got) != 16 {
		t.Fatalf("hostile id echoed or not regenerated: %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("no generated id on plain request: %q", got)
	}
}

// TestPprofGate checks the profiling endpoints are opt-in.
func TestPprofGate(t *testing.T) {
	off := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(off.Close)
	resp, _ := get(t, off.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(New(Options{Pprof: true}).Handler())
	t.Cleanup(on.Close)
	resp, body := get(t, on.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d\n%s", resp.StatusCode, body)
	}
}
