package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the histogram's resolution: each power-of-two range is
// split into 2^subBits linear sub-buckets, bounding the relative
// quantile error at 1/2^subBits ≈ 6%.
const subBits = 4

// numBuckets covers every non-negative int64 duration: 16 linear
// buckets below 16ns, then 16 sub-buckets per power of two up to 2^63.
const numBuckets = (64-subBits)<<subBits + 1<<subBits // 976

// Histogram is a lock-free log-linear latency histogram: Observe is a
// handful of atomic adds (no mutex, no allocation), making it cheap
// enough for per-job engine instrumentation, and quantiles are
// estimated from the bucket counts with ≤ ~6% relative error. The zero
// value is an empty histogram; a Registry family names it.
//
// Values are durations; negative observations clamp to zero.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the covering bucket.
// It returns 0 when the histogram is empty. Concurrent Observes make
// the estimate approximate, never invalid.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			// Interpolate the rank's position within this bucket.
			frac := float64(rank-seen) / float64(n+1)
			est := float64(lo) + frac*float64(hi-lo)
			if m := h.max.Load(); est > float64(m) {
				est = float64(m) // never report beyond the observed max
			}
			return time.Duration(est)
		}
		seen += n
	}
	return h.Max()
}

// bucketIndex maps a non-negative nanosecond value to its bucket: the
// identity below 2^subBits, then log-linear (HDR-histogram style)
// above.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	msb := bits.Len64(u) - 1
	shift := msb - subBits
	return (shift+1)<<subBits + int((u>>shift)&(1<<subBits-1))
}

// bucketLow is bucketIndex's inverse: the smallest value landing in
// bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	shift := i>>subBits - 1
	sub := int64(i & (1<<subBits - 1))
	return (1<<subBits + sub) << shift
}

// EngineStats bundles the engine-level instruments engine.Map and
// engine.Memo record into when a context carries one (see
// WithEngineStats): where each parallel job's time went — waiting for
// a worker slot versus evaluating — and how the memoization layer's
// flights resolved.
type EngineStats struct {
	// Eval observes each Map item's fn execution time.
	Eval *Histogram
	// QueueWait observes each Map item's wait between Map entry and a
	// worker picking it up.
	QueueWait *Histogram
	// MemoHit / MemoMiss / MemoShared count Memo.Do outcomes: served
	// from cache, computed by this call, or shared with another
	// caller's in-flight computation.
	MemoHit    *atomic.Int64
	MemoMiss   *atomic.Int64
	MemoShared *atomic.Int64
}

// NewEngineStats returns an EngineStats with empty instruments.
func NewEngineStats() *EngineStats {
	return &EngineStats{
		Eval:       new(Histogram),
		QueueWait:  new(Histogram),
		MemoHit:    new(atomic.Int64),
		MemoMiss:   new(atomic.Int64),
		MemoShared: new(atomic.Int64),
	}
}

// Register names the five instruments on r: the two duration
// summaries engine_eval_duration and engine_queue_wait_duration, then
// the memo outcome counters engine_memo_hits, engine_memo_misses and
// engine_memo_shared_flights.
func (st *EngineStats) Register(r *Registry) {
	r.Add(Family{Name: "engine_eval_duration", Kind: KindSummary, Collect: CollectHistogram(st.Eval)})
	r.Add(Family{Name: "engine_queue_wait_duration", Kind: KindSummary, Collect: CollectHistogram(st.QueueWait)})
	const help = "Engine memoization outcome count."
	r.Add(Family{Name: "engine_memo_hits", Help: help, Kind: KindCounter, Collect: CollectInt(st.MemoHit.Load)})
	r.Add(Family{Name: "engine_memo_misses", Help: help, Kind: KindCounter, Collect: CollectInt(st.MemoMiss.Load)})
	r.Add(Family{Name: "engine_memo_shared_flights", Help: help, Kind: KindCounter, Collect: CollectInt(st.MemoShared.Load)})
}
