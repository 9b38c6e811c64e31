package engine

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"tradeoff/internal/obs"
)

// Memo is a string-keyed memoization cache with LRU eviction bounded
// by entry count and by total value bytes, plus singleflight: while
// one caller computes a key, concurrent callers for the same key wait
// for that one computation instead of repeating it.
//
// Values are cached only on success; a failed computation is retried
// by the next caller. If the computing caller is cancelled, a waiting
// caller whose own context is still live takes over the computation
// rather than inheriting the cancellation.
type Memo[V any] struct {
	maxEntries int
	maxBytes   int64
	size       func(V) int64

	mu      sync.Mutex
	bytes   int64
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight[V]
}

type memoEntry[V any] struct {
	key   string
	val   V
	bytes int64
}

// flight is one in-progress computation; done closes when it settles.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewMemo returns a Memo bounded to maxEntries entries and maxBytes
// total value bytes as reported by size. A bound <= 0 means unlimited
// on that axis; a nil size prices every value at zero bytes (so only
// the entry bound applies).
func NewMemo[V any](maxEntries int, maxBytes int64, size func(V) int64) *Memo[V] {
	return &Memo[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		size:       size,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*flight[V]),
	}
}

// Memo.Do outcomes, recorded on spans and EngineStats counters.
const (
	outcomeHit    = "hit"    // served from the cache
	outcomeShared = "shared" // joined another caller's in-flight computation
	outcomeMiss   = "miss"   // computed by this call
	outcomeCancel = "cancel" // caller's context ended while waiting
)

// Do returns the memoized value for key, computing it with fn on a
// miss. The boolean reports whether the value was shared — served from
// cache or from another caller's in-flight computation — versus
// computed by this call. Identical concurrent keys run fn exactly
// once.
//
// When the context carries an obs.Tracer, the whole Do — including
// time spent waiting on another caller's flight — is one span with an
// "outcome" arg; obs.EngineStats counters tally hits, misses and
// shared flights.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, bool, error) {
	tracer, stats := obs.TracerFrom(ctx), obs.EngineStatsFrom(ctx)
	if tracer == nil && stats == nil {
		v, outcome, err := m.do(ctx, key, fn)
		return v, outcome != outcomeMiss, err
	}
	ctx, span := obs.StartSpan(ctx, "memo")
	v, outcome, err := m.do(ctx, key, fn)
	span.SetArg("outcome", outcome)
	span.End()
	if stats != nil {
		switch outcome {
		case outcomeHit:
			stats.MemoHit.Add(1)
		case outcomeMiss:
			stats.MemoMiss.Add(1)
		case outcomeShared:
			stats.MemoShared.Add(1)
		}
	}
	return v, outcome != outcomeMiss, err
}

// do is Do without instrumentation; the string return is the outcome.
func (m *Memo[V]) do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, string, error) {
	for {
		m.mu.Lock()
		if el, ok := m.entries[key]; ok {
			m.order.MoveToFront(el)
			v := el.Value.(*memoEntry[V]).val
			m.mu.Unlock()
			return v, outcomeHit, nil
		}
		if f, inflight := m.flights[key]; inflight {
			m.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					return f.val, outcomeShared, nil
				}
				// The computing caller failed. If it was torn down by its
				// own cancellation and we are still live, take over.
				if isCancellation(f.err) && ctx.Err() == nil {
					continue
				}
				var zero V
				return zero, outcomeShared, f.err
			case <-ctx.Done():
				var zero V
				return zero, outcomeCancel, ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		m.flights[key] = f
		m.mu.Unlock()
		m.fly(ctx, key, f, fn)
		return f.val, outcomeMiss, f.err
	}
}

// errFlightPanicked is what waiters on a flight whose fn panicked get.
var errFlightPanicked = errors.New("engine: memoized computation panicked")

// fly runs fn for the flight f of key and settles it. The settling is
// deferred, so a panicking fn still releases the key: its waiters get
// errFlightPanicked, nothing is cached, the next caller computes
// afresh, and the panic continues up this goroutine.
func (m *Memo[V]) fly(ctx context.Context, key string, f *flight[V], fn func(context.Context) (V, error)) {
	f.err = errFlightPanicked
	defer func() {
		m.mu.Lock()
		delete(m.flights, key)
		if f.err == nil {
			m.add(key, f.val)
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn(ctx)
}

// Get returns the cached value for key, refreshing its recency.
func (m *Memo[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry[V]).val, true
}

// Put stores a value directly, evicting LRU entries over either bound.
func (m *Memo[V]) Put(key string, val V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.add(key, val)
}

// add inserts or refreshes key under m.mu, then evicts from the LRU
// end until both bounds hold. An entry alone too large for the byte
// budget is evicted immediately — returned to its caller but never
// cached.
//
//lockguard:held mu
func (m *Memo[V]) add(key string, val V) {
	var n int64
	if m.size != nil {
		n = m.size(val)
	}
	if el, ok := m.entries[key]; ok {
		e := el.Value.(*memoEntry[V])
		m.bytes += n - e.bytes
		e.val, e.bytes = val, n
		m.order.MoveToFront(el)
	} else {
		m.entries[key] = m.order.PushFront(&memoEntry[V]{key: key, val: val, bytes: n})
		m.bytes += n
	}
	for m.order.Len() > 0 &&
		((m.maxEntries > 0 && m.order.Len() > m.maxEntries) ||
			(m.maxBytes > 0 && m.bytes > m.maxBytes)) {
		oldest := m.order.Back()
		e := oldest.Value.(*memoEntry[V])
		m.order.Remove(oldest)
		delete(m.entries, e.key)
		m.bytes -= e.bytes
	}
}

// Len returns the current entry count.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Bytes returns the summed size of all cached values.
func (m *Memo[V]) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// isCancellation reports whether err is a context teardown rather than
// a real computation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
