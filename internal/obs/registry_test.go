package obs

import (
	"bytes"
	"testing"
	"time"
)

// mustPanic runs f and reports whether it panicked.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func TestRegistryAddRejectsBadNames(t *testing.T) {
	none := func(func(Point)) {}
	r := NewRegistry()
	r.Add(Family{Name: "requests_total", Kind: KindCounter, Collect: none})
	if !mustPanic(func() { r.Add(Family{Name: "requests_total", Kind: KindGauge, Collect: none}) }) {
		t.Fatal("duplicate name did not panic")
	}
	for _, name := range []string{"", "Requests", "requestsTotal", "requests-total", "requests.total", "1requests", "_requests", "réquests"} {
		if !mustPanic(func() { r.Add(Family{Name: name, Kind: KindCounter, Collect: none}) }) {
			t.Errorf("name %q did not panic", name)
		}
	}
	for _, name := range []string{"a", "cache_bytes", "p99_ns_2", "x_"} {
		if mustPanic(func() { NewRegistry().Add(Family{Name: name, Kind: KindGauge, Collect: none}) }) {
			t.Errorf("valid name %q panicked", name)
		}
	}
}

// fixedHist returns a histogram holding the given millisecond samples.
func fixedHist(ms ...int) *Histogram {
	h := new(Histogram)
	for _, v := range ms {
		h.Observe(time.Duration(v) * time.Millisecond)
	}
	return h
}

func TestWritePrometheus(t *testing.T) {
	points := func(ps ...Point) func(func(Point)) {
		return func(emit func(Point)) {
			for _, p := range ps {
				emit(p)
			}
		}
	}
	for _, tc := range []struct {
		name string
		f    Family
		want string
	}{
		{"unlabeled counter", Family{Name: "requests_total", Help: "Requests.", Kind: KindCounter, Collect: CollectInt(func() int64 { return 1234567 })},
			"# HELP p_requests_total Requests.\n# TYPE p_requests_total counter\np_requests_total 1234567\n"},
		{"integer gauge", Family{Name: "in_flight", Help: "In flight.", Kind: KindGauge, Collect: points(Point{Value: -3})},
			"# HELP p_in_flight In flight.\n# TYPE p_in_flight gauge\np_in_flight -3\n"},
		{"float gauge", Family{Name: "ratio", Help: "A ratio.", Kind: KindGauge, Collect: points(Point{Value: 1.2e-05})},
			"# HELP p_ratio A ratio.\n# TYPE p_ratio gauge\np_ratio 1.2e-05\n"},
		{"two-label gauge", Family{Name: "burn", Help: "Burn.", Kind: KindGauge, Labels: []string{"endpoint", "window"},
			Collect: points(Point{Labels: []string{"/v1/sweep", "5m"}, Value: 2.5}, Point{Labels: []string{"/v1/sweep", "1h"}, Value: 1})},
			"# HELP p_burn Burn.\n# TYPE p_burn gauge\n" +
				"p_burn{endpoint=\"/v1/sweep\",window=\"5m\"} 2.5\np_burn{endpoint=\"/v1/sweep\",window=\"1h\"} 1\n"},
		{"labeled summary", Family{Name: "request_duration", Help: "Duration.", Kind: KindSummary, Labels: []string{"endpoint"},
			Collect: points(Point{Labels: []string{"/a"}, Hist: fixedHist(1, 2, 4, 8)})},
			"# HELP p_request_duration_seconds Duration.\n# TYPE p_request_duration_seconds summary\n" +
				"p_request_duration_seconds{endpoint=\"/a\",quantile=\"0.5\"} 0.001998848\n" +
				"p_request_duration_seconds{endpoint=\"/a\",quantile=\"0.95\"} 0.003997696\n" +
				"p_request_duration_seconds{endpoint=\"/a\",quantile=\"0.99\"} 0.003997696\n" +
				"p_request_duration_seconds_sum{endpoint=\"/a\"} 0.015\n" +
				"p_request_duration_seconds_count{endpoint=\"/a\"} 4\n"},
		{"unlabeled summary, empty help", Family{Name: "eval_duration", Kind: KindSummary, Collect: CollectHistogram(fixedHist(3, 5))},
			"# TYPE p_eval_duration_seconds summary\n" +
				"p_eval_duration_seconds{quantile=\"0.5\"} 0.00294912\n" +
				"p_eval_duration_seconds{quantile=\"0.95\"} 0.00294912\n" +
				"p_eval_duration_seconds{quantile=\"0.99\"} 0.00294912\n" +
				"p_eval_duration_seconds_sum 0.008\n" +
				"p_eval_duration_seconds_count 2\n"},
		{"empty help, no points", Family{Name: "endpoint_errors", Kind: KindCounter, Labels: []string{"endpoint"}, Collect: points()},
			"# TYPE p_endpoint_errors counter\n"},
	} {
		r := NewRegistry()
		r.Add(tc.f)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf, "p_"); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestWritePrometheusOrder checks families render in registration
// order, not by name.
func TestWritePrometheusOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Add(Family{Name: name, Kind: KindGauge, Collect: CollectInt(func() int64 { return 0 })})
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE zeta gauge\nzeta 0\n# TYPE alpha gauge\nalpha 0\n# TYPE mid gauge\nmid 0\n"
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestSeriesName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels []string
		want   string
	}{
		{"requests_total", nil, "requests_total"},
		{"request_duration", []string{"/v1/sweep"}, "request_duration_v1_sweep"},
		{"request_duration", []string{"/v1/sweep", "p99_ns"}, "request_duration_v1_sweep_p99_ns"},
		{"slo_latency_burn_rate", []string{"/v1/tradeoff", "5m"}, "slo_latency_burn_rate_v1_tradeoff_5m"},
		{"xval_max_abs_error", []string{"Nasa7"}, "xval_max_abs_error_nasa7"},
		{"endpoint_requests", []string{"/a//b-c/"}, "endpoint_requests_a_b_c"},
	} {
		if got := SeriesName(tc.name, tc.labels...); got != tc.want {
			t.Errorf("SeriesName(%q, %q) = %q, want %q", tc.name, tc.labels, got, tc.want)
		}
	}
}

// TestHistoryLateLabelValue checks a label value that first appears
// after tick 1 starts its ring at tick 2 — also when it sorts before
// the values already seen — and that every series keeps one sample
// per tick.
func TestHistoryLateLabelValue(t *testing.T) {
	values := []string{"b"}
	r := NewRegistry()
	r.Add(Family{Name: "late", Kind: KindGauge, Labels: []string{"key"}, Collect: func(emit func(Point)) {
		for i, v := range values {
			emit(Point{Labels: values[i : i+1], Value: float64(len(v))})
		}
	}})
	h := NewHistory(time.Second, time.Minute, r)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	h.Tick(base)
	values = []string{"a", "b"}
	h.Tick(base.Add(time.Second))
	h.Tick(base.Add(2 * time.Second))

	a, _ := h.Get("late_a", time.Time{})
	b, _ := h.Get("late_b", time.Time{})
	if len(a) != 2 || a[0].T != base.Add(time.Second).UnixMilli() {
		t.Fatalf("late_a = %v, want 2 samples from tick 2", a)
	}
	if len(b) != 3 || b[0].T != base.UnixMilli() || b[2].T != base.Add(2*time.Second).UnixMilli() {
		t.Fatalf("late_b = %v, want one sample per tick", b)
	}
	if got := h.Names(); len(got) != 2 || got[0] != "late_b" || got[1] != "late_a" {
		t.Fatalf("names = %v, want first-appearance order [late_b late_a]", got)
	}
}
