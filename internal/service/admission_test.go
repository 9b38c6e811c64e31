package service

import (
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

// TestSimGeometryRejectedBeforeTrace pins that a "sim:" sweep whose
// geometry the simulator rejects answers 422 before its trace is
// generated: in under 10 ms, with under 1 MB allocated and no
// trace_gen span, where generating the 5M-reference trace first took
// most of a second.
func TestSimGeometryRejectedBeforeTrace(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(simGeometryProbe)))
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "associativity 2 exceeds 1 lines") {
			t.Fatalf("status %d (%s), want 422 naming the geometry", rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%d bytes allocated before the 422, want under 1 MB", alloc)
		}
		best = min(best, took)
	}
	if best >= 10*time.Millisecond {
		t.Fatalf("422 after %v at best, want under 10 ms", best)
	}
	for _, rec := range s.ring.Snapshot(time.Time{}) {
		if rec.Name == "trace_gen" {
			t.Fatal("the rejected sweep generated its trace")
		}
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
