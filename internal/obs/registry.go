package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// KindCounter is a cumulative count that only grows.
	KindCounter Kind = iota
	// KindGauge is a value that moves both ways.
	KindGauge
	// KindSummary is a duration Histogram: Prometheus renders it in
	// seconds as <name>_seconds with p50/p95/p99, _sum and _count;
	// the history keeps <name>_p50_ns, <name>_p99_ns and <name>_count.
	KindSummary
)

// String is the kind's Prometheus TYPE keyword.
func (k Kind) String() string { return [...]string{"counter", "gauge", "summary"}[k] }

// Point is one sample of a family: one value per label key, and the
// value itself — Value for counters and gauges, Hist for summaries.
type Point struct {
	Labels []string
	Value  float64
	Hist   *Histogram
}

// Family is one named metric: every exporter derives its series from
// the name, the kind, the label keys and the points Collect reports.
type Family struct {
	Name   string   // snake_case, unique in its registry
	Help   string   // "" renders no # HELP line
	Kind   Kind     // counter, gauge or summary
	Labels []string // label keys; nil for a single unlabeled point
	// Collect reports the family's current points by calling emit
	// once per point, in a deterministic order. It runs on every
	// scrape and history tick, so it must not block.
	Collect func(emit func(Point))
}

// Registry is an ordered set of metric families: each is named once,
// and Prometheus exposition and the metrics history both iterate it,
// in registration order. Add families while building the owner,
// before the registry is shared; collection is then safe for
// concurrent use as far as the Collect functions are.
type Registry struct {
	families []*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers f. A name that is not snake_case
// (^[a-z][a-z0-9_]*$) or is already registered panics: both are
// programming errors, caught the first time the owner is built.
func (r *Registry) Add(f Family) {
	if !snakeCase(f.Name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", f.Name))
	}
	for _, g := range r.families {
		if g.Name == f.Name {
			panic(fmt.Sprintf("obs: metric %q registered twice", f.Name))
		}
	}
	r.families = append(r.families, &f)
}

// CollectInt is the Collect function of a family with one unlabeled
// point read from v.
func CollectInt(v func() int64) func(emit func(Point)) {
	return func(emit func(Point)) { emit(Point{Value: float64(v())}) }
}

// CollectHistogram is the Collect function of an unlabeled summary.
func CollectHistogram(h *Histogram) func(emit func(Point)) {
	return func(emit func(Point)) { emit(Point{Hist: h}) }
}

// snakeCase reports whether s matches ^[a-z][a-z0-9_]*$, by a byte
// loop: regexp would add its whole engine to every binary importing
// obs.
func snakeCase(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// promQuantiles are the quantiles every summary exposes.
var promQuantiles = []float64{0.5, 0.95, 0.99}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), names prefixed with prefix, in registration
// order and each family's points in its Collect order, so a fixed
// state renders fixed bytes. Integral values print as integers, other
// values in shortest 'g' form; summaries print seconds.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	var buf bytes.Buffer
	for _, f := range r.families {
		name := prefix + f.Name
		if f.Kind == KindSummary {
			name += "_seconds"
		}
		if f.Help != "" {
			fmt.Fprintf(&buf, "# HELP %s %s\n", name, f.Help)
		}
		fmt.Fprintf(&buf, "# TYPE %s %s\n", name, f.Kind)
		f.Collect(func(p Point) {
			labels := promLabels(f.Labels, p.Labels, "")
			if f.Kind != KindSummary {
				fmt.Fprintf(&buf, "%s%s %s\n", name, labels, promValue(p.Value))
				return
			}
			for _, q := range promQuantiles {
				quantile := strconv.FormatFloat(q, 'g', -1, 64)
				fmt.Fprintf(&buf, "%s%s %s\n", name, promLabels(f.Labels, p.Labels, quantile), promSeconds(p.Hist.Quantile(q)))
			}
			fmt.Fprintf(&buf, "%s_sum%s %s\n%s_count%s %d\n", name, labels, promSeconds(p.Hist.Sum()), name, labels, p.Hist.Count())
		})
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// promLabels renders {k1="v1",k2="v2"} (values Go-quoted) with
// quantile, when set, as the last label, or "" when there is none.
func promLabels(keys, values []string, quantile string) string {
	var b []byte
	for i, k := range keys {
		b = append(append(append(b, ','), k...), '=')
		b = strconv.AppendQuote(b, values[i])
	}
	if quantile != "" {
		b = strconv.AppendQuote(append(b, ",quantile="...), quantile)
	}
	if len(b) == 0 {
		return ""
	}
	b[0] = '{'
	return string(append(b, '}'))
}

// promValue formats a counter or gauge value.
func promValue(v float64) string {
	if _, frac := math.Modf(v); frac == 0 && math.Abs(v) < 1<<63 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSeconds formats a duration as Prometheus seconds.
func promSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// SeriesName is the history series one point feeds: the family name
// and each label value joined by '_', with every value lowercased and
// each run of bytes outside [a-z0-9] folded into one '_'. A summary's
// series append "p50_ns", "p99_ns" or "count" as a last value, so
// SeriesName("request_duration", "/v1/sweep") is
// "request_duration_v1_sweep" and its p99 series is
// SeriesName("request_duration", "/v1/sweep", "p99_ns").
func SeriesName(name string, labelValues ...string) string {
	b := []byte(name)
	for _, v := range labelValues {
		b = append(b, '_')
		for i := 0; i < len(v); i++ {
			c := v[i]
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			case 'A' <= c && c <= 'Z':
				c += 'a' - 'A'
			default:
				c = '_'
			}
			if c == '_' && b[len(b)-1] == '_' {
				continue
			}
			b = append(b, c)
		}
	}
	return string(bytes.TrimRight(b, "_"))
}
