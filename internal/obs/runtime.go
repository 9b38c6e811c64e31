package obs

import (
	"math"
	"runtime/metrics"
)

// runtimeGauges maps each runtime gauge onto the runtime/metrics
// sample it reads. Heap and goroutine pressure, GC pause and scheduler
// latency tails, and the GC cycle counter are the five signals that
// explain almost every "the service got slow but the endpoints look
// fine" incident.
var runtimeGauges = []struct {
	name   string // family name, snake_case
	metric string // runtime/metrics key
	scale  float64
}{
	{name: "runtime_heap_bytes", metric: "/memory/classes/heap/objects:bytes"},
	{name: "runtime_goroutines", metric: "/sched/goroutines:goroutines"},
	{name: "runtime_gc_cycles", metric: "/gc/cycles/total:gc-cycles"},
	{name: "runtime_gc_pause_p99_ns", metric: "/gc/pauses:seconds", scale: 1e9},
	{name: "runtime_sched_latency_p99_ns", metric: "/sched/latencies:seconds", scale: 1e9},
}

// NewRuntimeRegistry returns a registry of the Go runtime collector's
// five gauges (histogram metrics report their p99, scaled to ns). Each
// collect reads exactly one runtime/metrics sample (~µs); a metric the
// running toolchain does not export reads as 0 rather than failing.
func NewRuntimeRegistry() *Registry {
	r := NewRegistry()
	for _, rg := range runtimeGauges {
		sample := []metrics.Sample{{Name: rg.metric}}
		r.Add(Family{Name: rg.name, Kind: KindGauge, Collect: func(emit func(Point)) {
			metrics.Read(sample)
			var v float64
			switch sample[0].Value.Kind() {
			case metrics.KindUint64:
				v = float64(sample[0].Value.Uint64())
			case metrics.KindFloat64:
				v = sample[0].Value.Float64()
			case metrics.KindFloat64Histogram:
				v = histQuantile(sample[0].Value.Float64Histogram(), 0.99) * rg.scale
			}
			emit(Point{Value: v})
		}})
	}
	return r
}

// histQuantile estimates the q-quantile of a runtime/metrics
// histogram from its bucket counts, interpolating inside the covering
// bucket. Infinite bucket edges clamp to the nearest finite edge.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range h.Counts {
		seen += float64(c)
		if seen >= rank {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			frac := 1.0
			if c > 0 {
				frac = (rank - (seen - float64(c))) / float64(c)
			}
			return lo + frac*(hi-lo)
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
