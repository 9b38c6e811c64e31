package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Sample is one time-series point: wall-clock milliseconds and value.
type Sample struct {
	T int64   `json:"t"` // unix milliseconds
	V float64 `json:"v"`
}

// seriesRing is one series' fixed-size sample ring.
type seriesRing struct {
	name string
	ring[Sample]
}

// TickSnapshot is one snapshot cycle's output: the tick time and every
// series' sampled value — what SSE dashboard subscribers receive.
type TickSnapshot struct {
	T      int64              `json:"t"` // unix milliseconds
	Values map[string]float64 `json:"values"`
}

// summaryStats are the series each summary point feeds, by the last
// SeriesName value: the rolling p50 and p99 estimates and the
// cumulative count, whose delta over a window is its rate.
var summaryStats = []struct {
	name  string
	value func(*Histogram) float64
}{
	{"p50_ns", func(h *Histogram) float64 { return float64(h.Quantile(0.5)) }},
	{"p99_ns", func(h *Histogram) float64 { return float64(h.Quantile(0.99)) }},
	{"count", func(h *Histogram) float64 { return float64(h.Count()) }},
}

// familySeries caches the rings one family's points feed, by position
// in the family's Collect order, so a tick whose points match the last
// tick's label values builds no names.
type familySeries struct {
	f      *Family
	emit   func(Point) // bound once: a per-tick closure would allocate
	next   int         // index of the next point this tick
	points []pointRings
}

type pointRings struct {
	labels []string
	rings  []*seriesRing // one, or one per summaryStats entry
}

// pending is one collected value waiting for the store lock.
type pending struct {
	ring *seriesRing
	v    float64
}

// History is the in-process time-series store: on every Tick it
// collects its registries' families (see SeriesName for the series
// each point feeds) into fixed-size per-series rings (capacity =
// window / interval), starting a series' ring at the tick it first
// appears, and serves them as JSON windows. It answers "what did this
// process look like ten minutes ago" without any external metrics
// stack. History is safe for concurrent use.
type History struct {
	interval time.Duration
	capacity int
	regs     []*Registry

	// tickMu serialises ticks and guards the collection state. It is
	// separate from mu because collecting runs outside mu: families
	// may read this history (the SLO gauges do).
	tickMu   sync.Mutex
	families map[*Family]*familySeries
	batch    []pending

	mu     sync.Mutex
	order  []string
	series map[string]*seriesRing
	subs   map[int]chan TickSnapshot
	subID  int
}

// NewHistory returns a store sampling regs every interval (default
// 10s) and retaining window (default 1h) of samples per series.
func NewHistory(interval, window time.Duration, regs ...*Registry) *History {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	if window < interval {
		window = time.Hour
	}
	capacity := int(window / interval)
	if capacity < 2 {
		capacity = 2
	}
	return &History{
		interval: interval,
		capacity: capacity,
		regs:     regs,
		families: make(map[*Family]*familySeries),
		series:   make(map[string]*seriesRing),
		subs:     make(map[int]chan TickSnapshot),
	}
}

// Interval returns the snapshot cadence.
func (h *History) Interval() time.Duration { return h.interval }

// Names returns the series names in order of first appearance.
func (h *History) Names() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// Tick collects every family at now, appends one sample per series
// and fans the snapshot out to subscribers. Collection runs before the
// store lock is taken, so a family may read this history. A value
// that is NaN or ±Inf records 0 — rings must stay JSON-encodable.
func (h *History) Tick(now time.Time) TickSnapshot {
	h.tickMu.Lock()
	defer h.tickMu.Unlock()
	h.batch = h.batch[:0]
	for _, r := range h.regs {
		for _, f := range r.families {
			fs := h.families[f]
			if fs == nil {
				fs = &familySeries{f: f}
				fs.emit = func(p Point) { h.collect(fs, p) }
				h.families[f] = fs
			}
			fs.next = 0
			f.Collect(fs.emit)
		}
	}

	h.mu.Lock()
	snap := TickSnapshot{T: now.UnixMilli(), Values: make(map[string]float64, len(h.batch))}
	for _, p := range h.batch {
		v := p.v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		p.ring.push(Sample{T: snap.T, V: v})
		snap.Values[p.ring.name] = v
	}
	// Fan out under the lock: sends are non-blocking, and cancel
	// deletes a subscriber from the map (also under the lock) before
	// closing its channel, so a channel visible here cannot be closed
	// mid-send.
	for _, ch := range h.subs {
		select {
		case ch <- snap: // slow subscribers drop ticks rather than stall the schedule
		default:
		}
	}
	h.mu.Unlock()
	return snap
}

// collect queues one point's values on the tick's batch.
//
//lockguard:held tickMu
func (h *History) collect(fs *familySeries, p Point) {
	i := fs.next
	fs.next++
	if i == len(fs.points) {
		fs.points = append(fs.points, pointRings{})
	}
	pr := &fs.points[i]
	if pr.rings == nil || !slices.Equal(pr.labels, p.Labels) {
		*pr = pointRings{labels: slices.Clone(p.Labels), rings: h.rings(fs.f, p.Labels)}
	}
	if fs.f.Kind != KindSummary {
		h.batch = append(h.batch, pending{pr.rings[0], p.Value})
		return
	}
	for j, st := range summaryStats {
		h.batch = append(h.batch, pending{pr.rings[j], st.value(p.Hist)})
	}
}

// rings returns the rings a point of f with the given label values
// feeds, starting any series that is new.
func (h *History) rings(f *Family, labels []string) []*seriesRing {
	var names []string
	if f.Kind == KindSummary {
		for _, st := range summaryStats {
			names = append(names, SeriesName(f.Name, append(labels[:len(labels):len(labels)], st.name)...))
		}
	} else {
		names = []string{SeriesName(f.Name, labels...)}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*seriesRing, len(names))
	for i, name := range names {
		sr, ok := h.series[name]
		if !ok {
			sr = &seriesRing{name: name, ring: newRing[Sample](h.capacity)}
			h.series[name] = sr
			h.order = append(h.order, name)
		}
		out[i] = sr
	}
	return out
}

// Subscribe registers a snapshot listener with the given channel
// buffer and returns the channel plus a cancel function. Cancel is
// idempotent and closes the channel, so SSE handlers can range over
// it.
func (h *History) Subscribe(buf int) (<-chan TickSnapshot, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan TickSnapshot, buf)
	h.mu.Lock()
	id := h.subID
	h.subID++
	h.subs[id] = ch
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		_, live := h.subs[id]
		delete(h.subs, id)
		h.mu.Unlock()
		if live {
			close(ch)
		}
	}
}

// Get returns the retained samples for name at or after since. The
// second return is false for a series that has not appeared yet.
func (h *History) Get(name string, since time.Time) ([]Sample, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sr, ok := h.series[name]
	if !ok {
		return nil, false
	}
	all := sr.inOrder()
	cut := since.UnixMilli()
	i := sort.Search(len(all), func(i int) bool { return all[i].T >= cut })
	return all[i:], true
}

// Delta returns the first and last retained samples of name inside
// [since, now]; ok is false when the window holds fewer than two
// samples. Cumulative-counter series turn into windowed rates this
// way: (last.V - first.V) / (last.T - first.T).
func (h *History) Delta(name string, since time.Time) (first, last Sample, ok bool) {
	samples, found := h.Get(name, since)
	if !found || len(samples) < 2 {
		return Sample{}, Sample{}, false
	}
	return samples[0], samples[len(samples)-1], true
}

// Max returns the largest sample value of name inside the window, or
// false when the window is empty.
func (h *History) Max(name string, since time.Time) (float64, bool) {
	samples, found := h.Get(name, since)
	if !found || len(samples) == 0 {
		return 0, false
	}
	max := samples[0].V
	for _, s := range samples[1:] {
		if s.V > max {
			max = s.V
		}
	}
	return max, true
}

// WriteJSON renders the named series (every series when
// names is empty) at or after since as one JSON document:
//
//	{"interval_ms":10000,"series":{"heap_bytes":[{"t":...,"v":...},...]}}
//
// Unknown names render as empty arrays rather than erroring, so a
// dashboard polling a series that appears after boot degrades
// gracefully.
func (h *History) WriteJSON(w io.Writer, names []string, since time.Time) error {
	if len(names) == 0 {
		names = h.Names()
	}
	if _, err := fmt.Fprintf(w, "{\n\"interval_ms\": %d,\n\"series\": {", h.interval.Milliseconds()); err != nil {
		return err
	}
	for i, name := range names {
		samples, _ := h.Get(name, since)
		if samples == nil {
			samples = []Sample{}
		}
		data, err := json.Marshal(samples)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\n%q: %s", name, data); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n}\n")
	return err
}
