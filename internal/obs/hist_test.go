package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket boundary maps into its own bucket, and bucketLow is
	// the exact inverse on boundaries.
	for i := 0; i < numBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, lo, got)
		}
	}
	// Monotone: a larger value never lands in an earlier bucket.
	prev := 0
	for v := int64(0); v < 1<<20; v += 997 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
	}
	// The largest int64 stays in range.
	if idx := bucketIndex(math.MaxInt64); idx >= numBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want < %d", idx, numBuckets)
	}
}

func TestHistogramCountSumMax(t *testing.T) {
	h := new(Histogram)
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 6*time.Millisecond {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(Histogram)
	// A uniform distribution of 1..1000 µs; the log-linear buckets
	// bound the relative error at 1/2^subBits.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		relErr := math.Abs(float64(got-tc.want)) / float64(tc.want)
		if relErr > 1.0/(1<<subBits)+0.01 {
			t.Errorf("p%.0f = %v, want ≈%v (rel err %.3f)", tc.q*100, got, tc.want, relErr)
		}
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("p100 = %v, want max %v", got, h.Max())
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := new(Histogram)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Observe(-time.Second) // clamps to zero, never panics
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := new(Histogram)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*each {
		t.Fatalf("count = %d, want %d", h.Count(), workers*each)
	}
	if h.Max() != time.Duration(workers*each-1) {
		t.Fatalf("max = %v", h.Max())
	}
}
