package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tradeoff/internal/simjob"
	"tradeoff/internal/sweep"
)

// nonFiniteCases are payloads whose evaluation overflows float64: a
// +Inf delay per reference for the sweep and the search, a NaN
// miss-count ratio for the tradeoff. JSON cannot spell these values
// and CSV would print them as "+Inf" or "NaN" cells, so both formats
// must reject them alike.
var nonFiniteCases = []struct{ path, body string }{
	{"/v1/sweep", `{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":1e308,"transfer_ns":60,"cpu_ns":1e-300}`},
	{"/v1/optimize", `{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":1e308,"transfer_ns":60,"cpu_ns":1e-300,"area_budget":1e9}`},
	{"/v1/tradeoff", `{"feature":"bus","beta_m":1e308}`},
}

// TestNonFiniteResultsRejected pins the regression table: every format
// of every endpoint answers a non-finite result with the same 422, and
// the rejection is not memoized, so a repeat evaluates again.
func TestNonFiniteResultsRejected(t *testing.T) {
	s, ts := newTestServer(t)
	for _, c := range nonFiniteCases {
		urls := []string{ts.URL + c.path}
		if c.path != "/v1/tradeoff" {
			urls = append(urls, ts.URL+c.path+"?format=csv")
		}
		for _, url := range urls {
			for try := 0; try < 2; try++ {
				before := s.metrics.endpoint(c.path).evaluations.Load()
				resp, body := post(t, url, c.body)
				if resp.StatusCode != http.StatusUnprocessableEntity {
					t.Fatalf("%s try %d: status %d, want 422: %s", url, try, resp.StatusCode, body)
				}
				var e struct{ Error string }
				if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "overflow") {
					t.Fatalf("%s: error body %q (%v), want a JSON overflow error", url, body, err)
				}
				if n := s.metrics.endpoint(c.path).evaluations.Load() - before; n != 1 {
					t.Fatalf("%s try %d: %d evaluations, want 1 (a rejection must not be memoized)", url, try, n)
				}
			}
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("response memo holds %d entries, want none", n)
	}
}

// fuzzRoutes are the POST endpoints FuzzEndpoints drives.
var fuzzRoutes = []string{"/v1/tradeoff", "/v1/sweep", "/v1/stall", "/v1/optimize"}

// fuzzSeed adds body for route to the corpus in both formats.
func fuzzSeed(f *testing.F, route, body string) {
	for i, r := range fuzzRoutes {
		if r == route {
			f.Add(uint8(i), false, []byte(body))
			f.Add(uint8(i), true, []byte(body))
			return
		}
	}
	f.Fatalf("unknown route %q", route)
}

// FuzzEndpoints drives all four POST endpoints through Handler() on a
// server with tight limits. Whatever the body and format, the handler
// must neither panic nor answer 5xx: every input gets a 2xx or a 4xx.
func FuzzEndpoints(f *testing.F) {
	fuzzSeed(f, "/v1/sweep", goldenSweepConfig)
	fuzzSeed(f, "/v1/stall", goldenGrid)
	fuzzSeed(f, "/v1/optimize", goldenOptimizeConfig)
	fuzzSeed(f, "/v1/tradeoff", `{"feature":"pipe","hit_ratio":0.9,"l":64,"d":8,"beta_m":20,"q":3,"profile":{"e":1e6,"r":2e5,"w":1e3}}`)
	modes := []string{sweep.ModeExact, sweep.ModeModel, sweep.ModeAuto}
	for _, src := range []string{"model", "an:ear", "sim:ear", "mrc:zipf", "mrc~:nasa7"} {
		for _, mode := range modes {
			fuzzSeed(f, "/v1/sweep", fmt.Sprintf(`{"cache_kb":[4,16],"line_bytes":[16,32],"bus_bits":[32,64],
				"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":%q,"mode":%q,"sim_refs":2000}`, src, mode))
			fuzzSeed(f, "/v1/optimize", fmt.Sprintf(`{"cache_kb":[4],"line_bytes":[16,32],"bus_bits":[64],
				"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":%q,"mode":%q,"sim_refs":2000,
				"levels":[{"cache_kb":[32],"latency_ns":90}],"area_budget":1e8,"line_mode":"optimal"}`, src, mode))
		}
	}
	for _, mode := range modes {
		fuzzSeed(f, "/v1/stall", fmt.Sprintf(`{"programs":["ear","zipf"],"refs":2000,"features":["FS","NB"],"mode":%q}`, mode))
	}
	// Points outside the replay's domain on the analytic stall tier,
	// which once divided by a zero bus width and priced the rest.
	for _, mode := range []string{sweep.ModeModel, sweep.ModeAuto} {
		for _, axis := range []string{`"bus_bytes":[0]`, `"beta_m":[-5]`, `"bus_bytes":[3]`, `"assoc":3`} {
			fuzzSeed(f, "/v1/stall", fmt.Sprintf(`{"programs":["ear"],"refs":2000,"features":["FS","NB"],"mode":%q,%s}`, mode, axis))
		}
	}
	for _, c := range nonFiniteCases {
		fuzzSeed(f, c.path, c.body)
	}
	// Admission probes (admission_test.go): counts that once enumerated
	// or wrapped before the limit check.
	fuzzSeed(f, "/v1/stall", stallProbe(8))
	fuzzSeed(f, "/v1/sweep", wrapProbe())
	fuzzSeed(f, "/v1/optimize", wrapProbe())
	fuzzSeed(f, "/v1/sweep", simGeometryProbe)
	fuzzSeed(f, "/v1/sweep", simLevelProbe)
	fuzzSeed(f, "/v1/optimize", simLevelProbe)
	fuzzSeed(f, "/v1/optimize", simSettledProbe)
	fuzzSeed(f, "/v1/optimize", fmt.Sprintf(simUnsettledProbe, "optimal"))

	h := New(Options{
		Workers:     2,
		Limits:      sweep.Limits{MaxPoints: 64, MaxCacheKB: 256, MaxSimRefs: 5_000},
		StallLimits: simjob.Limits{MaxPoints: 32, MaxRefs: 5_000, MaxCacheKB: 64},
	}).Handler()
	f.Fuzz(func(t *testing.T, route uint8, csv bool, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		if csv {
			path += "?format=csv"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
