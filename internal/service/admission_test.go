package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tradeoff/internal/sweep"
)

// repeatAxis renders a JSON array of k copies of v.
func repeatAxis(v string, k int) string {
	return "[" + strings.TrimSuffix(strings.Repeat(v+",", k), ",") + "]"
}

// stallProbe is a grid with k entries, duplicates being legal, on each
// of its seven axes: k⁷ points in a few hundred bytes.
func stallProbe(k int) string {
	return fmt.Sprintf(`{"programs":%s,"features":%s,"cache_kb":%s,"line_bytes":%s,"bus_bytes":%s,"beta_m":%s,"wbuf_depths":%s}`,
		repeatAxis(`"ear"`, k), repeatAxis(`"FS"`, k), repeatAxis("8", k), repeatAxis("32", k),
		repeatAxis("4", k), repeatAxis("10", k), repeatAxis("0", k))
}

// wrapProbe is a sweep and search payload whose axis product wraps a
// plain int64 negative, under any limit: 256 entries on the L1
// cache_kb and line_bytes axes and on three deeper levels' cache_kb
// axes, 256 line_bytes on the first two of those levels, and 244
// bus_bits.
func wrapProbe() string {
	lines := repeatAxis("64", 256)
	return fmt.Sprintf(`{"cache_kb":%s,"line_bytes":%s,"bus_bits":%s,"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
"levels":[{"cache_kb":%s,"line_bytes":%s,"latency_ns":90},{"cache_kb":%s,"line_bytes":%s,"latency_ns":180},{"cache_kb":%s,"latency_ns":270}],
"area_budget":1e9}`,
		repeatAxis("8", 256), repeatAxis("32", 256), repeatAxis("32", 244),
		repeatAxis("64", 256), lines, repeatAxis("256", 256), lines, repeatAxis("1024", 256))
}

// wideProbe is a payload of four 65,536-entry axes, under the body
// cap, whose plain int64 product wraps to exactly 0.
func wideProbe() string {
	const k = 1 << 16
	return fmt.Sprintf(`{"cache_kb":%s,"line_bytes":%s,"bus_bits":%s,"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
"levels":[{"cache_kb":%s,"latency_ns":90}],"area_budget":1e9}`,
		repeatAxis("8", k), repeatAxis("32", k), repeatAxis("32", k), repeatAxis("64", k))
}

// serve posts body to path on h and returns the status code.
func serve(h http.Handler, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code
}

// TestStallAdmissionNeverEnumerates pins that /v1/stall refuses a grid
// over its point limit without building its points: 8 and 14 entries
// on each of the seven axes (2.1M and 105M points) answer 422 in under
// 10 ms with under 1 MB allocated.
func TestStallAdmissionNeverEnumerates(t *testing.T) {
	h := New(Options{}).Handler()
	for _, k := range []int{8, 14} {
		body := stallProbe(k)
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			code := serve(h, "/v1/stall", body)
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("%d-entry probe: status %d, want 422", k, code)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d-entry probe (%d bytes): %d bytes allocated before the 422, want under 1 MB", k, len(body), alloc)
			}
			best = min(best, took)
		}
		if best >= 10*time.Millisecond {
			t.Fatalf("%d-entry probe: 422 after %v at best, want under 10 ms", k, best)
		}
	}
}

// simGeometryProbe is a "sim:" sweep whose one geometry the simulator
// rejects (a 1 KiB cache of 1024-byte lines holds one line, fewer than
// the default two ways) at the largest trace the default limits admit.
const simGeometryProbe = `{"cache_kb":[1],"line_bytes":[1024],"bus_bits":[32],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:ear","sim_refs":5000000}`

// simLevelProbe is a "sim:" hierarchy, as a sweep or as a search,
// whose L1 the simulator accepts and whose one L2 geometry it rejects
// (48 KiB is not a power of two), at the same trace length.
const simLevelProbe = `{"cache_kb":[4],"line_bytes":[32],"bus_bits":[32],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:ear","sim_refs":5000000,"levels":[{"cache_kb":[48],"latency_ns":90}],"area_budget":1e9}`

// simSettledProbe is a "sim:" search for optimal lines whose L2
// geometry (48 KiB of 64-byte lines) the simulator rejects, and which
// both L1 lines reach, so the search prices it whichever line it keeps.
const simSettledProbe = `{"cache_kb":[4],"line_bytes":[32,64],"bus_bits":[32],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:ear","sim_refs":5000000,"levels":[{"cache_kb":[48],"line_bytes":[64],"latency_ns":90}],"area_budget":1e9,"line_mode":"optimal"}`

// TestSimGeometryRejectedBeforeTrace pins that a "sim:" request whose
// geometry the simulator rejects, flat or at any level of a hierarchy
// sweep or search, answers 422 before its trace is generated: in under
// 10 ms, with under 1 MB allocated and no trace_gen span, where
// generating the 5M-reference trace first took most of a second. A
// search for optimal lines does so for every level geometry it prices
// whichever line it keeps.
func TestSimGeometryRejectedBeforeTrace(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	for _, probe := range []struct{ path, body, want string }{
		{"/v1/sweep", simGeometryProbe, "associativity 2 exceeds 1 lines"},
		{"/v1/sweep", simLevelProbe, "L2: cache: size 49152 is not a positive power of two"},
		{"/v1/optimize", simLevelProbe, "L2: cache: size 49152 is not a positive power of two"},
		{"/v1/optimize", simSettledProbe, "L2: cache: size 49152 is not a positive power of two"},
	} {
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, probe.path, strings.NewReader(probe.body)))
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), probe.want) {
				t.Fatalf("%s %s: status %d (%s), want 422 naming %q", probe.path, probe.body, rec.Code, rec.Body, probe.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%s %s: %d bytes allocated before the 422, want under 1 MB", probe.path, probe.body, alloc)
			}
			best = min(best, took)
		}
		if best >= 10*time.Millisecond {
			t.Fatalf("%s %s: 422 after %v at best, want under 10 ms", probe.path, probe.body, best)
		}
	}
	for _, rec := range s.ring.Snapshot(time.Time{}) {
		if rec.Name == "trace_gen" {
			t.Fatal("a rejected request generated its trace")
		}
	}
}

// simUnsettledProbe is a "sim:" search for optimal lines whose L2
// inherits the L1 line: the 4 KiB, 8-way L2 is valid at the 32-byte
// line the search keeps, and would hold only 4 lines at the 1024-byte
// one it drops.
const simUnsettledProbe = `{"cache_kb":[2],"line_bytes":[32,1024],"bus_bits":[32],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:ear","sim_refs":20000,"levels":[{"cache_kb":[4],"assoc":8,"latency_ns":90}],"area_budget":1e9,"line_mode":"%s"}`

// TestSimSearchChecksOnlyLevelsItPrices pins that the geometry check
// before the trace rejects no design a search never prices: with
// optimal lines, simUnsettledProbe keeps the 32-byte line and answers
// 200, its one deeper design extending that line; with lines
// enumerated, it prices the 1024-byte design too and answers 422.
func TestSimSearchChecksOnlyLevelsItPrices(t *testing.T) {
	h := New(Options{}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(fmt.Sprintf(simUnsettledProbe, "optimal"))))
	if rec.Code != http.StatusOK {
		t.Fatalf("optimal lines: status %d (%s), want 200", rec.Code, rec.Body)
	}
	var res struct {
		Designs []sweep.Design `json:"designs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, d := range res.Designs {
		if len(d.Levels) > 0 {
			deep++
			if d.LineBytes != 32 || d.Levels[0].LineBytes != 32 {
				t.Errorf("deeper design %+v, want the kept 32-byte line at L1 and L2", d)
			}
		}
	}
	if deep != 1 {
		t.Errorf("%d deeper designs, want 1", deep)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(fmt.Sprintf(simUnsettledProbe, "enumerate"))))
	if want := "L2: cache: associativity 8 exceeds 4 lines"; rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("enumerated lines: status %d (%s), want 422 naming %q", rec.Code, rec.Body, want)
	}
}

// TestSweepAdmissionSaturates pins that point counts saturate instead
// of wrapping: payloads whose plain int64 axis product wraps negative
// or to 0 used to pass the default limits on /v1/sweep and
// /v1/optimize; both endpoints now refuse them with a 422.
func TestSweepAdmissionSaturates(t *testing.T) {
	h := New(Options{}).Handler()
	for name, body := range map[string]string{"wrapping": wrapProbe(), "wide": wideProbe()} {
		cfg, err := sweep.ParseConfig([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.CheckLimits(sweep.DefaultLimits); err == nil {
			t.Fatalf("%s probe (%d bytes) passed the sweep's default limits", name, len(body))
		}
		ocfg, err := sweep.ParseOptimizeConfig([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ocfg.CheckLimits(sweep.DefaultLimits); err == nil {
			t.Fatalf("%s probe (%d bytes) passed the search's default limits", name, len(body))
		}
		for _, path := range []string{"/v1/sweep", "/v1/optimize"} {
			if code := serve(h, path, body); code != http.StatusUnprocessableEntity {
				t.Fatalf("%s probe on %s: status %d, want 422", name, path, code)
			}
		}
	}
}
