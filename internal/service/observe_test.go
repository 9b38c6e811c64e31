package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tradeoff/internal/obs"
)

// obsBase is the fixed clock the deterministic observability tests
// tick with.
var obsBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// TestHistoryEndpointGolden pins the /metrics/history JSON bytes for
// a fixed, hand-ticked history state. Only deterministic series are
// requested (the runtime collector's values vary per process).
// Regenerate with -update-golden.
func TestHistoryEndpointGolden(t *testing.T) {
	s := New(Options{HistoryInterval: 10 * time.Second, HistoryWindow: time.Minute})
	s.metrics.requests.Add(5)
	s.metrics.errors.Add(1)
	s.history.Tick(obsBase)
	s.metrics.requests.Add(4)
	s.metrics.errors.Add(1)
	s.history.Tick(obsBase.Add(10 * time.Second))

	rec := httptest.NewRecorder()
	s.handleHistory(rec, httptest.NewRequest(http.MethodGet,
		"/metrics/history?series=requests_total,errors_total,in_flight", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.Bytes()
	if !json.Valid(body) {
		t.Fatalf("invalid JSON:\n%s", body)
	}

	checkGolden(t, "history_golden.json", body)
}

func TestHistoryEndpointValidation(t *testing.T) {
	s := New(Options{})
	rec := httptest.NewRecorder()
	s.handleHistory(rec, httptest.NewRequest(http.MethodGet, "/metrics/history?window=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleHistory(rec, httptest.NewRequest(http.MethodPost, "/metrics/history", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
}

// TestSLOPrometheusGolden pins the tradeoffd_slo_* gauge bytes for a
// fixed burn-rate state. Regenerate with -update-golden.
func TestSLOPrometheusGolden(t *testing.T) {
	sts := []sloStatus{
		{
			Endpoint:      "/v1/sweep",
			P99TargetNS:   (250 * time.Millisecond).Nanoseconds(),
			ErrorBudget:   0.01,
			LatencyBurn5m: 2.5, LatencyBurn1h: 1.25,
			ErrorBurn5m: 0.5, ErrorBurn1h: 0.25,
			Burning: true,
		},
		{
			Endpoint:      "/v1/stall",
			P99TargetNS:   (2 * time.Second).Nanoseconds(),
			LatencyBurn5m: 0.1, LatencyBurn1h: 0.2,
		},
	}
	r := obs.NewRegistry()
	registerSLO(r, func() []sloStatus { return sts })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "tradeoffd_"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "slo_golden.prom", buf.Bytes())
}

// TestSLOLayerLive drives the SLO layer end to end on hand-ticked
// history: an endpoint violating its latency target and error budget
// must report burning on both /metrics formats, while a server
// without SLOs keeps both documents free of any slo key (the
// byte-identity guarantee the Prometheus golden also pins).
func TestSLOLayerLive(t *testing.T) {
	slos, err := obs.ParseSLOs("tradeoff:p99<1ms,err<1%")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{SLOs: slos, HistoryInterval: 10 * time.Second, HistoryWindow: time.Hour})
	now := obsBase.Add(20 * time.Second)
	s.now = func() time.Time { return now }
	// 100 requests, 10 errors (10× the 1% budget), p99 ~16ms (16× the
	// 1ms target) on /v1/tradeoff.
	ep := s.metrics.endpoint("/v1/tradeoff")
	s.history.Tick(obsBase)
	for i := 0; i < 100; i++ {
		ep.duration.Observe(16 * time.Millisecond)
	}
	ep.requests.Add(100)
	ep.errors.Add(10)
	s.history.Tick(obsBase.Add(10 * time.Second))
	s.history.Tick(now)

	sts := s.sloStatuses(now)
	if len(sts) != 1 || sts[0].Endpoint != "/v1/tradeoff" {
		t.Fatalf("statuses = %+v", sts)
	}
	st := sts[0]
	if !st.Burning || st.LatencyBurn5m <= 1 || st.ErrorBurn5m <= 1 {
		t.Fatalf("burning state not detected: %+v", st)
	}
	// 10% errors against a 1% budget burns at 10×.
	if st.ErrorBurn5m < 9.9 || st.ErrorBurn5m > 10.1 {
		t.Fatalf("error burn = %v, want ~10", st.ErrorBurn5m)
	}

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	prom := rec.Body.String()
	for _, want := range []string{
		`tradeoffd_slo_latency_burn_rate{endpoint="/v1/tradeoff",window="5m"} `,
		`tradeoffd_slo_error_budget{endpoint="/v1/tradeoff"} 0.01`,
		`tradeoffd_slo_burning{endpoint="/v1/tradeoff"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition lacks %q:\n%s", want, prom)
		}
	}

	rec = httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc struct {
		SLO []sloStatus `json:"slo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.SLO) != 1 || !doc.SLO[0].Burning {
		t.Fatalf("JSON slo doc = %+v", doc.SLO)
	}

	// No SLOs → no slo key in either document.
	plain := New(Options{})
	rec = httptest.NewRecorder()
	plain.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), `"slo"`) {
		t.Fatalf("plain server leaks slo key:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	plain.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if strings.Contains(rec.Body.String(), "tradeoffd_slo_") {
		t.Fatalf("plain server leaks slo gauges:\n%s", rec.Body.String())
	}
}

// promSeries lists the history series every point of a Prometheus
// exposition feeds, per obs.SeriesName: a counter or gauge point its
// family name and label values, a summary point (one per set of
// quantile lines) its _p50_ns, _p99_ns and _count series.
func promSeries(t *testing.T, body, prefix string) []string {
	t.Helper()
	summaries := map[string]bool{}
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if f := strings.Fields(rest); f[1] == "summary" {
				summaries[f[0]] = true
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(strings.Fields(line)[0], "{")
		var values []string
		quantile := ""
		if rest != "" {
			for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
				k, v, _ := strings.Cut(kv, "=")
				uv, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("label %s in %q: %v", kv, line, err)
				}
				if k == "quantile" {
					quantile = uv
				} else {
					values = append(values, uv)
				}
			}
		}
		family := strings.TrimPrefix(name, prefix)
		switch {
		case !summaries[name] && (summaries[strings.TrimSuffix(name, "_sum")] || summaries[strings.TrimSuffix(name, "_count")]):
			// _sum and _count lines belong to the quantile lines' point.
		case summaries[name] && quantile == "0.5":
			family = strings.TrimSuffix(family, "_seconds")
			for _, stat := range []string{"p50_ns", "p99_ns", "count"} {
				out = append(out, obs.SeriesName(family, append(values, stat)...))
			}
		case !summaries[name]:
			out = append(out, obs.SeriesName(family, values...))
		}
	}
	return out
}

// TestHistoryCoversEveryFamily checks the history snapshots every
// point of every /metrics family — SLO gauges and a cross-validation
// sample included — and nothing but those and the runtime gauges,
// and that the series the SLO layer reads are among them.
func TestHistoryCoversEveryFamily(t *testing.T) {
	slos, err := obs.ParseSLOs("tradeoff:p99<1ms,err<1%")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{SLOs: slos})
	s.now = func() time.Time { return obsBase }
	s.metrics.recordXVal("nasa7", xvalSample{LineSize: 32, MaxAbs: 0.0625, MeanAbs: 0.03125, Budget: 0.1, Within: true})
	snap := s.history.Tick(obsBase)

	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf, "tradeoffd_"); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range promSeries(t, buf.String(), "tradeoffd_") {
		want[name] = true
		if _, ok := snap.Values[name]; !ok {
			t.Errorf("series %s has no history sample", name)
		}
	}
	for _, name := range []string{
		"request_duration_v1_tradeoff_p99_ns", "endpoint_requests_v1_tradeoff", "endpoint_errors_v1_tradeoff",
		"request_duration_v1_tradeoff_p50_ns", "request_duration_v1_tradeoff_count",
		"xval_max_abs_error_nasa7", "slo_burning_v1_tradeoff", "slo_latency_burn_rate_v1_tradeoff_5m",
		"cache_hits", "engine_eval_duration_p99_ns",
	} {
		if !want[name] {
			t.Errorf("exposition yields no series %s (have %v)", name, want)
		}
	}
	for _, name := range s.history.Names() {
		if !want[name] && !strings.HasPrefix(name, "runtime_") {
			t.Errorf("history series %s matches no /metrics point", name)
		}
	}
}

// TestFlightEndpoint drives real traffic through the middleware and
// checks the dump is a balanced, per-lane-monotonic B/E trace_event
// array holding the request spans.
func TestFlightEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := get(t, ts.URL+"/debug/flight?last=1m")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight status %d: %s", resp.StatusCode, body)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("dump is not a JSON array: %v\n%s", err, body)
	}
	requests := 0
	lastTS := map[int]float64{}
	stacks := map[int][]string{}
	for i, ev := range events {
		if prev, ok := lastTS[ev.TID]; ok && ev.TS < prev {
			t.Fatalf("event %d: lane %d not monotonic", i, ev.TID)
		}
		lastTS[ev.TID] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
			if ev.Name == "request" {
				requests++
				if _, ok := ev.Args["request_id"]; !ok {
					t.Errorf("request B event lacks request_id arg: %v", ev.Args)
				}
			}
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("event %d: unbalanced E %q on lane %d (stack %v)", i, ev.Name, ev.TID, st)
			}
			stacks[ev.TID] = st[:len(st)-1]
		default:
			t.Fatalf("event %d: phase %q", i, ev.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			t.Fatalf("lane %d left open: %v", tid, st)
		}
	}
	if requests != 3 {
		t.Fatalf("dump holds %d request spans, want 3", requests)
	}

	if resp, _ := get(t, ts.URL+"/debug/flight?last=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad last: status %d, want 400", resp.StatusCode)
	}

	off := httptest.NewServer(New(Options{FlightSpans: -1}).Handler())
	t.Cleanup(off.Close)
	if resp, _ := get(t, off.URL+"/debug/flight"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled recorder: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, off.URL+"/debug/slow"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled exemplars: status %d, want 404", resp.StatusCode)
	}
}

// TestSlowExemplarCapture makes the tail threshold trivially low so a
// warm endpoint's next request pins an exemplar, then checks
// /debug/slow serves it with its span tree.
func TestSlowExemplarCapture(t *testing.T) {
	s := New(Options{SlowFactor: 1e-9})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Warm past slowMinSamples so the rolling p99 is trusted, then one
	// more request over the (absurdly low) threshold.
	for i := 0; i < slowMinSamples+1; i++ {
		resp, _ := get(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	}
	if s.exemplars.Captured() == 0 {
		t.Fatal("no exemplar captured past the warmup gate")
	}
	resp, body := get(t, ts.URL+"/debug/slow")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow status %d: %s", resp.StatusCode, body)
	}
	var doc slowResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("slow JSON: %v\n%s", err, body)
	}
	if doc.Captured == 0 || doc.Kept == 0 || len(doc.Exemplars) == 0 {
		t.Fatalf("empty slow doc: %+v", doc)
	}
	ex := doc.Exemplars[0]
	if ex.Endpoint != "/healthz" {
		t.Fatalf("exemplar endpoint %q, want /healthz", ex.Endpoint)
	}
	if ex.DurationUS < 0 || ex.ThresholdUS < 0 {
		t.Fatalf("negative durations: %+v", ex)
	}
	var spans []map[string]any
	if err := json.Unmarshal(ex.Spans, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("exemplar spans invalid (err %v): %s", err, ex.Spans)
	}
}

// TestWideEventLog pins the one-line-per-request access log: every
// dimension known at completion on a single structured line.
func TestWideEventLog(t *testing.T) {
	var buf syncBuffer
	s := New(Options{Logger: obs.NewLogger(&buf, obs.LevelInfo)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, _ := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	line := ""
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "msg=request") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no access-log line:\n%s", buf.String())
	}
	for _, kv := range []string{
		"method=POST",
		"path=/v1/tradeoff",
		"status=200",
		"duration_us=",
		"bytes=",
		"request_id=",
		"endpoint=/v1/tradeoff",
		"cache=miss",
		"key=",
	} {
		if !strings.Contains(line, kv) {
			t.Errorf("access log line lacks %q:\n%s", kv, line)
		}
	}

	// The key is a 16-hex-char hash, not raw payload bytes.
	fields := strings.Fields(line)
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, "key="); ok {
			if len(v) != 16 {
				t.Fatalf("key hash %q, want 16 hex chars", v)
			}
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDashServesHTMLAndSSE covers both halves of /debug/dash: the
// self-contained page and the SSE stream, which must deliver a tick
// fanned out by the history scheduler.
func TestDashServesHTMLAndSSE(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/debug/dash")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dash status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "tradeoffd live") || !strings.Contains(string(body), "EventSource") {
		t.Fatalf("dashboard page incomplete:\n%.300s", body)
	}

	sresp, err := http.Get(ts.URL + "/debug/dash?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	// The subscriber registers on connect; tick until the event shows
	// up (the handler subscribes before we can observe it, so a couple
	// of ticks guarantees delivery).
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.obsTick(time.Now())
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	defer close(done)
	sc := bufio.NewScanner(sresp.Body)
	sawEvent, sawData := false, false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: tick" {
			sawEvent = true
		}
		if strings.HasPrefix(line, "data: ") {
			var snap obs.TickSnapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				t.Fatalf("tick payload: %v\n%s", err, line)
			}
			if _, ok := snap.Values["requests_total"]; !ok {
				t.Fatalf("tick lacks requests_total: %v", snap.Values)
			}
			sawData = true
			break
		}
	}
	if !sawEvent || !sawData {
		t.Fatalf("no tick event on the stream (event=%v data=%v, err=%v)", sawEvent, sawData, sc.Err())
	}
}

// TestDashSSEChurn is the -race test for subscriber churn: clients
// connecting and disconnecting while the tick fan-out runs.
func TestDashSSEChurn(t *testing.T) {
	s, ts := newTestServer(t)
	stop := make(chan struct{})
	var tickers sync.WaitGroup
	tickers.Add(1)
	go func() {
		defer tickers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.obsTick(time.Now())
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/debug/dash?stream=sse")
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				_, _ = resp.Body.Read(buf) // read a little, then hang up
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	tickers.Wait()
}
