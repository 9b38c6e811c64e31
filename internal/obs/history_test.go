package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// addGauge registers an unlabeled gauge read from fn.
func addGauge(r *Registry, name string, fn func() float64) {
	r.Add(Family{Name: name, Kind: KindGauge, Collect: func(emit func(Point)) { emit(Point{Value: fn()}) }})
}

// gaugeHistory returns a history over one unlabeled gauge.
func gaugeHistory(interval, window time.Duration, name string, fn func() float64) *History {
	r := NewRegistry()
	addGauge(r, name, fn)
	return NewHistory(interval, window, r)
}

func TestHistoryTickAndGet(t *testing.T) {
	var v float64
	h := gaugeHistory(10*time.Second, time.Minute, "test_series", func() float64 { return v })

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		v = float64(i * 10)
		h.Tick(base.Add(time.Duration(i) * 10 * time.Second))
	}
	samples, ok := h.Get("test_series", time.Time{})
	if !ok || len(samples) != 4 {
		t.Fatalf("Get = %v ok=%v, want 4 samples", samples, ok)
	}
	if samples[3].V != 30 {
		t.Fatalf("last sample %v, want 30", samples[3])
	}
	// Windowed query drops the early samples.
	since := base.Add(15 * time.Second)
	samples, _ = h.Get("test_series", since)
	if len(samples) != 2 || samples[0].V != 20 {
		t.Fatalf("windowed Get = %v, want samples at 20s and 30s", samples)
	}
	if _, ok := h.Get("no_such_series", time.Time{}); ok {
		t.Fatal("unknown series reported ok")
	}
}

func TestHistoryRingWraps(t *testing.T) {
	n := 0.0
	h := gaugeHistory(time.Second, 4*time.Second, "wrap_series", func() float64 { n++; return n }) // capacity 4
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		h.Tick(base.Add(time.Duration(i) * time.Second))
	}
	samples, _ := h.Get("wrap_series", time.Time{})
	if len(samples) != 4 {
		t.Fatalf("kept %d samples, want capacity 4", len(samples))
	}
	// Oldest-first after wrap: values 7,8,9,10.
	for i, want := range []float64{7, 8, 9, 10} {
		if samples[i].V != want {
			t.Fatalf("samples = %v, want values 7..10 in order", samples)
		}
	}
}

func TestHistoryDeltaAndMax(t *testing.T) {
	v := 0.0
	h := gaugeHistory(time.Second, time.Minute, "counter_total", func() float64 { return v })
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i, val := range []float64{5, 9, 100, 40} {
		v = val
		h.Tick(base.Add(time.Duration(i) * time.Second))
	}
	first, last, ok := h.Delta("counter_total", time.Time{})
	if !ok || first.V != 5 || last.V != 40 {
		t.Fatalf("Delta = %v..%v ok=%v, want 5..40", first, last, ok)
	}
	mx, ok := h.Max("counter_total", time.Time{})
	if !ok || mx != 100 {
		t.Fatalf("Max = %v ok=%v, want 100", mx, ok)
	}
	if _, _, ok := h.Delta("counter_total", base.Add(10*time.Second)); ok {
		t.Fatal("Delta on an empty window reported ok")
	}
}

func TestHistorySanitizesNonFinite(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	i := 0
	h := gaugeHistory(time.Second, time.Minute, "weird_series", func() float64 { v := vals[i%len(vals)]; i++; return v })
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for k := 0; k < 3; k++ {
		h.Tick(base.Add(time.Duration(k) * time.Second))
	}
	samples, _ := h.Get("weird_series", time.Time{})
	for _, s := range samples {
		if s.V != 0 {
			t.Fatalf("non-finite sample leaked: %v", samples)
		}
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf, nil, time.Time{}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON produced invalid JSON: %s", buf.Bytes())
	}
}

func TestHistoryWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	addGauge(r, "series_a", func() float64 { return 1 })
	addGauge(r, "series_b", func() float64 { return 2 })
	h := NewHistory(10*time.Second, time.Minute, r)
	h.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf, []string{"series_a", "missing"}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalMS int64               `json:"interval_ms"`
		Series     map[string][]Sample `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.IntervalMS != 10000 {
		t.Fatalf("interval_ms = %d, want 10000", doc.IntervalMS)
	}
	if len(doc.Series["series_a"]) != 1 || doc.Series["series_a"][0].V != 1 {
		t.Fatalf("series_a = %v", doc.Series["series_a"])
	}
	if got, ok := doc.Series["missing"]; !ok || len(got) != 0 {
		t.Fatalf("missing series = %v ok=%v, want present and empty", got, ok)
	}
	if _, ok := doc.Series["series_b"]; ok {
		t.Fatal("unrequested series_b rendered")
	}
}

func TestHistorySubscribe(t *testing.T) {
	h := gaugeHistory(time.Second, time.Minute, "sub_series", func() float64 { return 42 })
	ch, cancel := h.Subscribe(2)
	snap := h.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	got := <-ch
	if got.T != snap.T || got.Values["sub_series"] != 42 {
		t.Fatalf("subscriber got %+v, want %+v", got, snap)
	}
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}
	cancel() // idempotent: must not close twice (would panic)
}

// TestHistorySubscribeChurn is the -race test for concurrent
// subscribe/unsubscribe while the tick loop fans out.
func TestHistorySubscribeChurn(t *testing.T) {
	h := gaugeHistory(time.Second, time.Minute, "churn_series", func() float64 { return 1 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now = now.Add(time.Second)
			h.Tick(now)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ch, cancel := h.Subscribe(1)
				select { // drain at most one tick; slow subscribers just drop
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	// Concurrent windowed reads against the ticking store.
	for i := 0; i < 200; i++ {
		h.Get("churn_series", time.Time{})
	}
	close(stop)
	wg.Wait()
}

// TestHistoryRegisterHistogramAndCounter checks a summary family
// feeds its _p50_ns, _p99_ns and _count series and a counter family
// its own name.
func TestHistoryRegisterHistogramAndCounter(t *testing.T) {
	var hist Histogram
	hist.Observe(100 * time.Millisecond)
	var c atomic.Int64
	c.Add(7)
	r := NewRegistry()
	r.Add(Family{Name: "reg_test_duration", Kind: KindSummary, Collect: CollectHistogram(&hist)})
	r.Add(Family{Name: "reg_test_total", Kind: KindCounter, Collect: CollectInt(c.Load)})
	h := NewHistory(time.Second, time.Minute, r)
	snap := h.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if snap.Values["reg_test_duration_count"] != 1 {
		t.Fatalf("histogram count series = %v", snap.Values)
	}
	if snap.Values["reg_test_duration_p50_ns"] <= 0 || snap.Values["reg_test_duration_p99_ns"] <= 0 {
		t.Fatalf("histogram quantile series = %v", snap.Values)
	}
	if snap.Values["reg_test_total"] != 7 {
		t.Fatalf("counter series = %v", snap.Values)
	}
	if got := h.Names(); len(got) != 4 {
		t.Fatalf("series = %v, want 3 summary series and 1 counter", got)
	}
}

// TestHistoryFamilyReadsHistory checks a family may read the history
// that collects it: collection runs outside the store lock.
func TestHistoryFamilyReadsHistory(t *testing.T) {
	var h *History
	n := 0.0
	r := NewRegistry()
	addGauge(r, "base_series", func() float64 { n++; return n })
	addGauge(r, "derived_series", func() float64 {
		mx, _ := h.Max("base_series", time.Time{})
		return mx
	})
	h = NewHistory(time.Second, time.Minute, r)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	h.Tick(base)
	snap := h.Tick(base.Add(time.Second))
	// The derived gauge reads the rings before this tick's samples land.
	if snap.Values["derived_series"] != 1 {
		t.Fatalf("derived_series = %v, want 1", snap.Values["derived_series"])
	}
}

func TestRegisterRuntimeSeries(t *testing.T) {
	h := NewHistory(time.Second, time.Minute, NewRuntimeRegistry())
	snap := h.Tick(time.Now())
	if snap.Values["runtime_heap_bytes"] <= 0 {
		t.Fatalf("runtime_heap_bytes = %v, want > 0", snap.Values["runtime_heap_bytes"])
	}
	if snap.Values["runtime_goroutines"] < 1 {
		t.Fatalf("runtime_goroutines = %v, want >= 1", snap.Values["runtime_goroutines"])
	}
	for _, name := range []string{"runtime_gc_cycles", "runtime_gc_pause_p99_ns", "runtime_sched_latency_p99_ns"} {
		if _, ok := snap.Values[name]; !ok {
			t.Fatalf("series %s missing from snapshot", name)
		}
	}
}
