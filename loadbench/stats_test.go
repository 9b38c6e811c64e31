package main

import (
	"math"
	"strings"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{0, 0.5, 0},
	} {
		got, err := percentile(ramp(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refused", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*c.q, c.n, got, err, c.want)
		}
	}
	xs := ramp(1000)
	xs[0] = math.Inf(1) // a failure counts as slower than any reply
	if got, _ := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 with one failure = %g, want 990", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		name        string
		base, cur   []float64
		b           band
		lowerBetter bool
		want        string
	}{
		{"same", tight, tight, band{rel: 0.1}, true, within},
		{"inside the band", tight, []float64{108, 108, 109, 107, 108}, band{rel: 0.1}, true, within},
		{"slower", tight, []float64{115, 115, 116, 114, 115}, band{rel: 0.1}, true, regressed},
		{"faster", tight, []float64{85, 85, 86, 84, 85}, band{rel: 0.1}, true, improved},
		{"fewer rps", tight, []float64{85, 85, 86, 84, 85}, band{rel: 0.1}, false, regressed},
		{"more rps", tight, []float64{115, 115, 116, 114, 115}, band{rel: 0.1}, false, improved},
		{"noisy base", []float64{60, 80, 100, 120, 140}, tight, band{rel: 0.1}, true, unresolved},
		{"noisy but every run slower", tight, []float64{150, 170, 200, 230, 250}, band{rel: 0.1}, true, regressed},
		{"noisy but every run faster", []float64{150, 170, 200, 230, 250}, tight, band{rel: 0.1}, true, improved},
		// fail_ratio: the base sits at zero, so a relative band allows
		// nothing and the absolute band decides.
		{"no failures", []float64{0, 0, 0}, []float64{0, 0, 0}, band{abs: 0.001}, true, within},
		{"failures inside +0.001", []float64{0, 0, 0}, []float64{0.0005, 0.0008, 0.0002}, band{abs: 0.001}, true, within},
		{"failures beyond +0.001", []float64{0, 0, 0}, []float64{0.002, 0.003, 0.0025}, band{abs: 0.001}, true, regressed},
		{"failures fixed", []float64{0.01, 0.01, 0.01}, []float64{0, 0, 0}, band{abs: 0.001}, true, improved},
	} {
		if got := judge(c.base, c.cur, c.b, c.lowerBetter); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestReadFlight(t *testing.T) {
	// Two sweep requests on one dump lane. The first sweep_point holds
	// a memo span (recorder lane 1) wrapping an mrc_pass; the second
	// sweep_point sits inside the first request's span but on another
	// recorder lane, so it is nobody's child.
	dump := `[
{"name":"request","ph":"B","ts":0,"pid":1,"tid":0,"args":{"lane":0,"path":"/v1/sweep"}},
{"name":"sweep_point","ph":"B","ts":10,"pid":1,"tid":0,"args":{"lane":1}},
{"name":"memo","ph":"B","ts":20,"pid":1,"tid":0,"args":{"lane":1}},
{"name":"mrc_pass","ph":"B","ts":25,"pid":1,"tid":0,"args":{"lane":1}},
{"name":"mrc_pass","ph":"E","ts":55,"pid":1,"tid":0},
{"name":"memo","ph":"E","ts":60,"pid":1,"tid":0},
{"name":"sweep_point","ph":"E","ts":110,"pid":1,"tid":0},
{"name":"sweep_point","ph":"B","ts":120,"pid":1,"tid":0,"args":{"lane":0}},
{"name":"sweep_point","ph":"E","ts":150,"pid":1,"tid":0},
{"name":"request","ph":"E","ts":200,"pid":1,"tid":0},
{"name":"request","ph":"B","ts":210,"pid":1,"tid":1,"args":{"lane":0,"path":"/v1/stall"}},
{"name":"sim_job","ph":"B","ts":220,"pid":1,"tid":1,"args":{"lane":0}},
{"name":"sim_job","ph":"E","ts":2220,"pid":1,"tid":1},
{"name":"request","ph":"E","ts":2300,"pid":1,"tid":1}
]`
	tally, err := readFlight(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	got := tally.metrics()
	want := map[string]float64{
		"sweep.points_per_req": 2,
		"sweep.point_self_us":  (100 - 40 + 30) / 2.0,
		"mrc.passes_per_req":   0.5,
		"simjob.jobs_per_req":  0.5,
		"simjob.job_ms":        2,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, err := readFlight(strings.NewReader(`[{"name":"a","ph":"E","ts":1,"tid":0}]`)); err == nil {
		t.Error("readFlight accepted an unbalanced dump")
	}
}
