package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tradeoff/internal/core"
	"tradeoff/internal/model"
	"tradeoff/internal/simjob"
	"tradeoff/internal/sweep"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := make([]byte, 0, 4096)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, data
}

func TestTradeoffEndpointMatchesCore(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/tradeoff",
		`{"feature":"bus","hit_ratio":0.95,"alpha":0.5,"l":32,"d":4,"beta_m":10}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got TradeoffResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	want, err := core.FeatureTradeoff(core.FeatureSpec{Feature: core.FeatureDoubleBus}, 0.95, 0.5, 32, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.DeltaHR-want.DeltaHR) > 1e-12 || math.Abs(got.MissCountRatio-want.R) > 1e-12 {
		t.Fatalf("endpoint ΔHR=%v r=%v, core ΔHR=%v r=%v", got.DeltaHR, got.MissCountRatio, want.DeltaHR, want.R)
	}
	if !got.Valid || got.Feature != want.Feature.String() {
		t.Fatalf("valid=%v feature=%q", got.Valid, got.Feature)
	}
}

func TestTradeoffDefaultsMirrorCLI(t *testing.T) {
	// An empty body (all defaults) must price like the CLI's default
	// flags: -hr 0.95 -alpha 0.5 -l 32 -d 4 -beta 10.
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/tradeoff", `{"feature":"wbuf"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got TradeoffResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, _ := core.FeatureTradeoff(core.FeatureSpec{Feature: core.FeatureWriteBuffers}, 0.95, 0.5, 32, 4, 10)
	if math.Abs(got.DeltaHR-want.DeltaHR) > 1e-12 {
		t.Fatalf("defaulted ΔHR = %v, want %v", got.DeltaHR, want.DeltaHR)
	}
}

func TestTradeoffPipeExtras(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/tradeoff", `{"feature":"pipe","q":2,"l":32,"d":4,"beta_m":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got TradeoffResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if want := core.BetaP(8, 2, 32, 4); got.BetaP != want {
		t.Fatalf("beta_p = %v, want %v", got.BetaP, want)
	}
	if want, _ := core.PipelineCrossover(2, 32, 4); math.Abs(got.CrossoverBetaM-want) > 1e-12 {
		t.Fatalf("crossover = %v, want %v", got.CrossoverBetaM, want)
	}
	// L = 2D: the crossover is +Inf and must be omitted, not break JSON.
	resp, body = post(t, ts.URL+"/v1/tradeoff", `{"feature":"pipe","l":8,"d":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("L=2D status %d: %s", resp.StatusCode, body)
	}
	got = TradeoffResponse{}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.CrossoverBetaM != 0 {
		t.Fatalf("L=2D crossover = %v, want omitted", got.CrossoverBetaM)
	}
}

func TestTradeoffProfileExecTime(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/tradeoff",
		`{"feature":"bus","profile":{"e":1000000,"r":64000,"w":300}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got TradeoffResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Exec == nil {
		t.Fatal("no exec block despite profile")
	}
	p := core.Params{E: 1e6, R: 64000, W: 300, Alpha: 0.5, D: 4, L: 32, BetaM: 10}.WithFullStall()
	if want := core.ExecutionTime(p); math.Abs(got.Exec.ExecutionCycles-want) > 1e-6 {
		t.Fatalf("execution_cycles = %v, want %v", got.Exec.ExecutionCycles, want)
	}
	if want := p.Misses(); got.Exec.Misses != want {
		t.Fatalf("misses = %v, want %v", got.Exec.Misses, want)
	}
}

func TestTradeoffRejects(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		body string
		code int
	}{
		{`{`, http.StatusBadRequest},
		{`{"feature":"warp-drive"}`, http.StatusUnprocessableEntity},
		{`{}`, http.StatusUnprocessableEntity},                                   // missing feature
		{`{"feature":"bus","hit_ratio":1.5}`, http.StatusUnprocessableEntity},    // HR out of (0,1)
		{`{"feature":"stall","phi":99}`, http.StatusUnprocessableEntity},         // φ > L/D
		{`{"feature":"bus","l":4,"d":4}`, http.StatusUnprocessableEntity},        // L < 2D
		{`{"feature":"bus","profile":{"e":-1}}`, http.StatusUnprocessableEntity}, // bad profile
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/v1/tradeoff", c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.body, resp.StatusCode, c.code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/tradeoff: status %d, want 405", resp.StatusCode)
	}
}

func TestSweepEndpointJSONAndCSV(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/sweep", sweep.ExampleConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Count != 30 || len(got.Designs) != 30 {
		t.Fatalf("count = %d (%d designs), want 30", got.Count, len(got.Designs))
	}
	if got.ParetoCount == 0 || got.ParetoCount == got.Count {
		t.Fatalf("pareto_count %d of %d implausible", got.ParetoCount, got.Count)
	}

	// CSV format matches the engine's (and hence the CLI's) golden bytes.
	resp, body = post(t, ts.URL+"/v1/sweep?format=csv", sweep.ExampleConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("csv content type %q", ct)
	}
	golden, err := os.ReadFile("../sweep/testdata/example_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(golden) {
		t.Fatalf("service CSV differs from the serial golden output:\n%s", body)
	}
	_ = s
}

// TestModeModelEndToEnd drives the mode knob through both HTTP
// endpoints: mode "model" re-prices an exact hit source from the
// analytic tier, the designs/points carry the "an:<workload>" stamp,
// and the responses surface the committed error bound.
func TestModeModelEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	sweepCfg := `{"cache_kb":[8,16],"line_bytes":[32],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
		"hit_source":"mrc:nasa7","mode":"model"}`
	resp, body := post(t, ts.URL+"/v1/sweep", sweepCfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if want := model.ErrorBound("nasa7"); sr.ErrorBound != want {
		t.Fatalf("sweep error_bound = %v, want %v", sr.ErrorBound, want)
	}
	for _, d := range sr.Designs {
		if d.HitSource != "an:nasa7" {
			t.Fatalf("design hit_source = %q, want an:nasa7", d.HitSource)
		}
	}

	// The exact path must not advertise a bound.
	resp, body = post(t, ts.URL+"/v1/sweep", strings.Replace(sweepCfg, `"model"`, `"exact"`, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact sweep status %d: %s", resp.StatusCode, body)
	}
	var exact SweepResponse
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.ErrorBound != 0 {
		t.Fatalf("exact sweep error_bound = %v, want omitted", exact.ErrorBound)
	}

	stallCfg := `{"programs":["nasa7","ear"],"refs":2000,"beta_m":[4],"mode":"model"}`
	resp, body = post(t, ts.URL+"/v1/stall", stallCfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stall status %d: %s", resp.StatusCode, body)
	}
	var st StallResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Points {
		if p.Source != "an:"+p.Program {
			t.Fatalf("point source = %q, want an:%s", p.Source, p.Program)
		}
	}
	for _, w := range []string{"nasa7", "ear"} {
		if st.ErrorBounds[w] != model.ErrorBound(w) {
			t.Fatalf("stall error_bounds[%s] = %v, want %v", w, st.ErrorBounds[w], model.ErrorBound(w))
		}
	}
}

// TestModelCurvesShared pins that /v1/sweep and /v1/stall price from
// one analytic-curve cache: after a model-mode sweep, a model-mode
// stall grid over the same workload, seed, refs and line size builds
// no curve of its own.
func TestModelCurvesShared(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/sweep", `{"cache_kb":[8,16],"line_bytes":[32],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
		"hit_source":"mrc:nasa7","sim_refs":2000,"mode":"model"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	curves := s.runner.Models().Len()
	if curves == 0 {
		t.Fatal("the model-mode sweep cached no curve")
	}
	resp, body = post(t, ts.URL+"/v1/stall", `{"programs":["nasa7"],"refs":2000,"line_bytes":[32],"beta_m":[4,10],"mode":"model"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stall status %d: %s", resp.StatusCode, body)
	}
	if got := s.runner.Models().Len(); got != curves {
		t.Fatalf("the stall grid built %d curves of its own, want 0", got-curves)
	}
}

func TestSweepMemoized(t *testing.T) {
	s, ts := newTestServer(t)
	before := s.CacheHits()
	resp, _ := post(t, ts.URL+"/v1/sweep", sweep.ExampleConfig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	// Same space, different field order and whitespace: must hit.
	reordered := `{"cpu_ns":30,"transfer_ns":60,"latency_ns":360,
		"bus_bits":[32,64],"line_bytes":[16,32,64],"cache_kb":[4,8,16,32,64],
		"assoc":2,"hit_source":"model"}`
	resp2, body2 := post(t, ts.URL+"/v1/sweep", reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if s.CacheHits() != before+1 {
		t.Fatalf("cache hits %d, want %d", s.CacheHits(), before+1)
	}
	// The metrics endpoint reports the same counter.
	var m struct {
		CacheHits int64 `json:"cache_hits"`
	}
	respM, bodyM := get(t, ts.URL+"/metrics")
	if respM.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", respM.StatusCode)
	}
	if err := json.Unmarshal(bodyM, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, bodyM)
	}
	if m.CacheHits != s.CacheHits() {
		t.Fatalf("metrics cache_hits = %d, want %d", m.CacheHits, s.CacheHits())
	}
}

func TestSweepRejects(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		url, body string
		code      int
	}{
		{"/v1/sweep", `{`, http.StatusBadRequest},
		{"/v1/sweep", `{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":0,"transfer_ns":1,"cpu_ns":1}`, http.StatusBadRequest},
		{"/v1/sweep?format=xml", sweep.ExampleConfig, http.StatusBadRequest},
		// Over the default service limits: a 1 GiB simulated cache.
		{"/v1/sweep", `{"cache_kb":[1048576],"line_bytes":[32],"bus_bits":[32],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:zipf"}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+c.url, c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%s %s: status %d, want %d (%s)", c.url, c.body, resp.StatusCode, c.code, body)
		}
	}
}

func TestSweepClientDisconnectCancels(t *testing.T) {
	// Drive the handler directly with an already-cancelled request
	// context: the sweep pool must abort and report 499, not 200.
	s := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweep.ExampleConfig)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled sweep status %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var data []byte
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestMetricsCountersAdvance(t *testing.T) {
	s, ts := newTestServer(t)
	post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
	post(t, ts.URL+"/v1/tradeoff", `{"feature":"nope"}`)
	var m struct {
		Requests  int64 `json:"requests_total"`
		Errors    int64 `json:"errors_total"`
		InFlight  int64 `json:"in_flight"`
		Endpoints map[string]struct {
			Requests     int64 `json:"requests"`
			Errors       int64 `json:"errors"`
			LatencyTotal int64 `json:"latency_us_total"`
		} `json:"endpoints"`
	}
	_, body := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.Requests < 2 || m.Errors < 1 || m.InFlight != 0 {
		t.Fatalf("requests=%d errors=%d in_flight=%d", m.Requests, m.Errors, m.InFlight)
	}
	ep, ok := m.Endpoints["/v1/tradeoff"]
	if !ok || ep.Requests != 2 || ep.Errors != 1 {
		t.Fatalf("endpoint counters: %+v (ok=%v)", ep, ok)
	}
	_ = s
}

// TestCacheByteBound checks the response memo is bounded by bytes, not
// just entries, and that the /metrics document exposes the live
// cache_bytes gauge.
func TestCacheByteBound(t *testing.T) {
	// A byte budget small enough that the (~1.3 KB) sweep CSV golden
	// cannot be cached: the response must still be served, twice, with
	// no hit and without the gauge exceeding the bound.
	s := New(Options{CacheBytes: 512})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL+"/v1/sweep?format=csv", sweep.ExampleConfig)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Cache = %q, want miss (response over the byte budget)", i, got)
		}
	}
	if got := s.cache.Bytes(); got > 512 {
		t.Fatalf("cache bytes = %d exceeds the 512-byte bound", got)
	}

	// The small /v1/tradeoff response fits and is cached; the gauge and
	// the /metrics document both report its footprint.
	if resp, _ := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("tradeoff status %d", resp.StatusCode)
	}
	if got := s.cache.Bytes(); got <= 0 || got > 512 {
		t.Fatalf("cache bytes = %d, want in (0, 512]", got)
	}
	var m struct {
		CacheBytes int64 `json:"cache_bytes"`
	}
	_, body := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.CacheBytes != s.cache.Bytes() {
		t.Fatalf("metrics cache_bytes = %d, want %d", m.CacheBytes, s.cache.Bytes())
	}
}

// TestSweepSingleflight is the dedup acceptance test: N concurrent
// identical /v1/sweep requests must share exactly one engine
// evaluation — the first runs, the rest join its flight (or hit the
// cache if they arrive after it lands), never re-run the sweep.
func TestSweepSingleflight(t *testing.T) {
	s, ts := newTestServer(t)
	// A simulation-backed sweep takes long enough that the requests
	// genuinely overlap.
	cfg := `{"cache_kb":[4,8],"line_bytes":[32],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
		"hit_source":"sim:zipf","sim_refs":100000}`
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/sweep", cfg)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d returned different bytes than request 0", i)
		}
	}
	if got := s.metrics.endpoint("/v1/sweep").evaluations.Value(); got != 1 {
		t.Fatalf("%d concurrent identical sweeps ran %d evaluations, want exactly 1", n, got)
	}
	if hits := s.CacheHits(); hits != n-1 {
		t.Fatalf("cache hits = %d, want %d (every follower shares the one evaluation)", hits, n-1)
	}
}

// stallTestGrid is a small /v1/stall payload: 1 program × 2 features ×
// 2 βm = 4 points.
const stallTestGrid = `{
  "programs":   ["nasa7"],
  "refs":       4000,
  "features":   ["FS", "BNL3"],
  "beta_m":     [4, 10]
}`

func TestStallEndpointMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/stall", stallTestGrid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got StallResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if got.Count != 4 || len(got.Points) != 4 {
		t.Fatalf("count = %d, points = %d, want 4", got.Count, len(got.Points))
	}
	// The response must match what the engine measures directly, in
	// enumeration order.
	grid, err := simjob.ParseGrid([]byte(stallTestGrid))
	if err != nil {
		t.Fatal(err)
	}
	want, err := simjob.NewRunner().RunGrid(context.Background(), grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Points[i] != want[i] {
			t.Fatalf("point %d differs from direct engine run:\ngot  %+v\nwant %+v", i, got.Points[i], want[i])
		}
	}
	// FS pins φ = L/D exactly; a violation means the endpoint wired the
	// wrong decomposition through.
	for _, p := range got.Points {
		if p.Feature == "FS" && p.Result.PhiFraction != 1 {
			t.Fatalf("FS point measured φ fraction %v, want exactly 1", p.Result.PhiFraction)
		}
	}
}

func TestStallCSV(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/stall?format=csv", stallTestGrid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/csv") {
		t.Fatalf("content type %q, want text/csv", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 5 { // header + 4 points
		t.Fatalf("%d CSV lines, want 5:\n%s", len(lines), body)
	}
	if !strings.HasPrefix(lines[0], "program,feature,") || !strings.Contains(lines[0], ",bus_wait,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
}

func TestStallMemoized(t *testing.T) {
	s, ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/stall", stallTestGrid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	before := s.CacheHits()
	// Same grid, different field order, whitespace and spelled-out
	// defaults: must hit.
	reordered := `{"beta_m":[4,10],"features":["FS","BNL3"],
		"refs":4000,"programs":["nasa7"],"seed":1994,"assoc":2,"write_miss":"allocate"}`
	resp2, body2 := post(t, ts.URL+"/v1/stall", reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if s.CacheHits() != before+1 {
		t.Fatalf("cache hits %d, want %d", s.CacheHits(), before+1)
	}
}

func TestStallRejects(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"programs":["no-such"]}`, http.StatusBadRequest},
		{`{"features":["XX"]}`, http.StatusBadRequest},
		{`{"refs":999999999}`, http.StatusUnprocessableEntity},
		{`{"cache_kb":[1048576]}`, http.StatusUnprocessableEntity},
	} {
		resp, body := post(t, ts.URL+"/v1/stall", tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.status, body)
		}
	}
	resp, _ := get(t, ts.URL+"/v1/stall")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestStallModesShareReplayDomain pins that the analytic stall tier
// admits exactly the replay's design points: a grid point outside the
// cache or memory domain gets the replay's 422, word for word, in
// every mode. The analytic tier used to price such points — a zero
// bus width panicked with an integer division by zero and stranded the
// memo flight, so a repeat hung, and βm < 1, an odd bus or a
// non-power-of-two cache answered 200 with meaningless numbers.
func TestStallModesShareReplayDomain(t *testing.T) {
	h := New(Options{}).Handler()
	stall := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stall", strings.NewReader(body)))
		var e struct{ Error string }
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		return rec.Code, e.Error
	}
	for _, mode := range []string{sweep.ModeModel, sweep.ModeAuto} {
		body := `{"mode":"` + mode + `","bus_bytes":[0]}`
		for try := 0; try < 2; try++ {
			code, msg := stall(body)
			if code != http.StatusUnprocessableEntity || msg != "memory: bus width 0, want one of 4, 8, 16, 32" {
				t.Fatalf("%s try %d: %d %q, want 422 and the replay's bus width error", body, try, code, msg)
			}
		}
	}
	for _, axis := range []string{
		`"bus_bytes":[3]`, `"bus_bytes":[64],"line_bytes":[64]`, `"beta_m":[0]`, `"beta_m":[-5]`,
		`"assoc":3`, `"cache_kb":[24]`,
	} {
		var exact string
		for _, mode := range []string{sweep.ModeExact, sweep.ModeModel, sweep.ModeAuto} {
			body := `{"programs":["ear"],"refs":2000,"features":["FS","NB"],"mode":"` + mode + `",` + axis + `}`
			code, msg := stall(body)
			if code != http.StatusUnprocessableEntity || msg == "" {
				t.Fatalf("%s: %d %q, want 422 with an error", body, code, msg)
			}
			if mode == sweep.ModeExact {
				exact = msg
			} else if msg != exact {
				t.Errorf("%s: error %q, want exact mode's %q", body, msg, exact)
			}
		}
	}
}

func TestStallClientDisconnectCancels(t *testing.T) {
	// Drive the handler directly with an already-cancelled request
	// context: the replay pool must abort and report 499, not 200.
	s := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/stall", strings.NewReader(stallTestGrid)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled stall run status %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestOptimizeEndpoint drives POST /v1/optimize end to end: JSON and
// CSV shapes, response memoization on the canonical config, the
// payload limits, and the 400/422 error split.
func TestOptimizeEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	cfg := `{"cache_kb":[4,8],"line_bytes":[16,32],"bus_bits":[32,64],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"model",
		"levels":[{"cache_kb":[32,64],"latency_ns":90},{"cache_kb":[256],"latency_ns":180}],
		"area_budget":2e7}`
	resp, body := post(t, ts.URL+"/v1/optimize", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got OptimizeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Feasible != len(got.Designs) || got.Total < got.Feasible || got.ParetoCount == 0 {
		t.Fatalf("implausible optimize response: total=%d feasible=%d pareto=%d designs=%d",
			got.Total, got.Feasible, got.ParetoCount, len(got.Designs))
	}
	three := false
	for _, d := range got.Designs {
		if len(d.Levels) == 2 {
			three = true
		}
		if d.AreaRBE > 2e7 {
			t.Fatalf("design over the area budget: %+v", d)
		}
	}
	if !three {
		t.Fatal("no three-level design in the frontier")
	}

	// A repeated (whitespace-shuffled) request hits the response memo.
	hits := s.CacheHits()
	resp, _ = post(t, ts.URL+"/v1/optimize", strings.ReplaceAll(cfg, "\n\t\t", " "))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat not served from cache: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if s.CacheHits() != hits+1 {
		t.Fatalf("cache hits %d, want %d", s.CacheHits(), hits+1)
	}

	// CSV carries the optimize header.
	resp, body = post(t, ts.URL+"/v1/optimize?format=csv", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(string(body), "cache_kb,line_bytes,bus_bits,levels,") {
		t.Fatalf("csv header: %q", strings.SplitN(string(body), "\n", 2)[0])
	}

	// Missing budget: 400 from decode-time validation.
	resp, _ = post(t, ts.URL+"/v1/optimize", strings.Replace(cfg, `"area_budget":2e7`, `"area_budget":0`, 1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero budget: status %d, want 400", resp.StatusCode)
	}

	// The limits stage sums points across depths: this space is 40.
	tight := New(Options{Limits: sweep.Limits{MaxPoints: 39, MaxCacheKB: 1 << 20, MaxSimRefs: 1 << 20}})
	tts := httptest.NewServer(tight.Handler())
	defer tts.Close()
	resp, body = post(t, tts.URL+"/v1/optimize", cfg)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-limit optimize: status %d (%s), want 422", resp.StatusCode, body)
	}
}

// TestOptimizeEndpointSimSource runs a measured hierarchy search: the
// request's trace must be generated once, in one trace_gen span,
// however many flat and hierarchy designs replay it.
func TestOptimizeEndpointSimSource(t *testing.T) {
	s, ts := newTestServer(t)
	cfg := `{"cache_kb":[4,8],"line_bytes":[32],"bus_bits":[64],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
		"hit_source":"sim:ear","sim_refs":20000,
		"levels":[{"cache_kb":[64],"latency_ns":90}],
		"area_budget":1e8}`
	resp, body := post(t, ts.URL+"/v1/optimize", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got OptimizeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 4 {
		t.Fatalf("total = %d, want 4 (2 flat + 2 two-level)", got.Total)
	}
	gens := 0
	for _, rec := range s.ring.Snapshot(time.Time{}) {
		if rec.Name == "trace_gen" {
			gens++
		}
	}
	if gens != 1 {
		t.Fatalf("measured search recorded %d trace_gen spans, want 1", gens)
	}
}
