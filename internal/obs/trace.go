package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// Tracer collects completed spans and exports them in the Chrome
// trace_event format ("Trace Event Format", the JSON array of "X"
// complete events chrome://tracing and Perfetto load directly).
// Timestamps are microseconds relative to the tracer's creation.
//
// A Tracer is safe for concurrent use; spans from engine.Map workers
// land in one shared event list.
type Tracer struct {
	epoch time.Time
	now   func() time.Time // test hook; defaults to time.Now

	// ring, when set, receives a copy of every completed span — the
	// tee into the always-on flight recorder (see SpanRing).
	ring *SpanRing
	// limit, when > 0, bounds the retained event list; spans completed
	// beyond it still reach the ring but are dropped from events, so a
	// per-request tracer cannot grow without bound on a huge sweep.
	limit int

	mu      sync.Mutex
	events  []traceEvent
	dropped int64
}

// traceEvent is one complete ("ph":"X") trace_event record. pid is
// always 1 — one process — and tid maps onto engine worker slots, so
// a trace renders as one lane per worker with nested spans.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // start, µs since tracer epoch
	Dur  float64 `json:"dur"` // duration, µs
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args Args    `json:"args,omitempty"`
}

// Arg is one key/value a span carries.
type Arg struct {
	Key   string
	Value any
}

// Args are a span's key/values in the order they were first set. The
// flight recorder keeps every recorded span's Args resident, so they
// are a short slice rather than a map: a sweep_point span's four args
// hold 131 bytes instead of a map's 339, which halves the memory of a
// full 8192-span ring (3.3 to 1.7 MB).
type Args []Arg

// MarshalJSON encodes a as a JSON object with its keys sorted, the
// bytes encoding/json produces for the equivalent map[string]any. It
// sorts a copy: the flight ring and the tracer share a's backing array.
func (a Args) MarshalJSON() ([]byte, error) {
	sorted := slices.Clone(a)
	slices.SortFunc(sorted, func(x, y Arg) int { return strings.Compare(x.Key, y.Key) })
	buf := []byte{'{'}
	for i, arg := range sorted {
		if i > 0 {
			buf = append(buf, ',')
		}
		key, err := json.Marshal(arg.Key)
		if err != nil {
			return nil, err
		}
		val, err := json.Marshal(arg.Value)
		if err != nil {
			return nil, err
		}
		buf = append(append(append(buf, key...), ':'), val...)
	}
	return append(buf, '}'), nil
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now}
	t.epoch = t.now()
	return t
}

// NewRequestTracer returns the tracer the service installs on every
// request when the flight recorder is on: completed spans tee into
// ring, and at most limit of them (0 = unlimited) are retained
// locally for tail-based exemplar capture.
func NewRequestTracer(ring *SpanRing, limit int) *Tracer {
	t := NewTracer()
	// The tracer is not shared yet, but limit is mutex-guarded at its
	// read sites; taking the uncontended lock here keeps that invariant
	// whole-program (and lockguard-checkable).
	t.mu.Lock()
	t.ring = ring
	t.limit = limit
	t.mu.Unlock()
	return t
}

// Dropped returns how many spans the event limit discarded.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is one in-progress traced operation. The zero of the API is a
// nil *Span: every method is a no-op on nil, so callers instrument
// unconditionally and pay nothing when tracing is off.
//
// A Span is owned by the goroutine that started it; SetArg and End
// must not race with each other.
type Span struct {
	tracer *Tracer
	name   string
	tid    int
	start  time.Time
	args   Args
	ended  bool
}

// StartSpan begins a span named name on the context's tracer and
// returns a derived context carrying it, so child spans nest inside
// it (they inherit its lane). Without a tracer it returns ctx and a
// nil span, both safe to use.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t, name: name, start: t.now()}
	if parent := CurrentSpan(ctx); parent != nil {
		s.tid = parent.tid
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SetTID moves the span onto lane tid — engine.Map pins each worker
// slot to its own lane so traces render one row per worker.
func (s *Span) SetTID(tid int) {
	if s == nil {
		return
	}
	s.tid = tid
}

// SetArg attaches a key/value to the span's trace_event args,
// replacing the value of a key already set.
func (s *Span) SetArg(key string, val any) {
	if s == nil {
		return
	}
	for i := range s.args {
		if s.args[i].Key == key {
			s.args[i].Value = val
			return
		}
	}
	if s.args == nil {
		s.args = make(Args, 0, 4)
	}
	s.args = append(s.args, Arg{Key: key, Value: val})
}

// End completes the span and records it. Calling End twice records
// once.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.tracer
	end := t.now()
	ev := traceEvent{
		Name: s.name,
		Ph:   "X",
		TS:   float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(s.start).Nanoseconds()) / 1e3,
		PID:  1,
		TID:  s.tid,
		Args: s.args,
	}
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
	if t.ring != nil {
		t.ring.Record(SpanRecord{Name: s.name, Start: s.start, Dur: end.Sub(s.start), TID: s.tid, Args: s.args})
	}
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON writes the completed spans as a trace_event JSON array,
// one event per line so traces diff readably.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()

	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(data, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// JSON returns the completed spans as a trace_event JSON array — the
// payload exemplar capture pins for a slow request.
func (t *Tracer) JSON() []byte {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return []byte("[]\n") // only a Marshal failure, which traceEvent cannot produce
	}
	return buf.Bytes()
}

// WriteFile writes the trace_event JSON to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
