package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanRecord is one completed span as the flight recorder keeps it:
// absolute wall-clock start (so dumps can be windowed with ?last=30s),
// duration, the lane the tracer assigned, and the span args. Records
// are value types — recording one is a struct copy under a single
// uncontended mutex, cheap enough to leave on for every request.
type SpanRecord struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	TID   int
	Args  Args
}

// End returns the span's completion time.
func (r SpanRecord) End() time.Time { return r.Start.Add(r.Dur) }

// ring keeps the last cap(items) values pushed, overwriting the
// oldest once full. Its owners lock around it.
type ring[T any] struct {
	items  []T   // grows to its capacity, then stays full
	next   int   // the slot the next push writes once full
	pushed int64 // pushes ever, including the overwritten ones
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{items: make([]T, 0, capacity)}
}

func (r *ring[T]) push(v T) {
	if len(r.items) < cap(r.items) {
		r.items = append(r.items, v)
	} else {
		r.items[r.next] = v
	}
	r.next++
	if r.next == cap(r.items) {
		r.next = 0
	}
	r.pushed++
}

// inOrder returns a copy of the retained values, oldest first. Until
// the ring fills, next is len(items), so items[next:] is empty.
func (r *ring[T]) inOrder() []T {
	out := make([]T, 0, len(r.items))
	return append(append(out, r.items[r.next:]...), r.items[:r.next]...)
}

// SpanRing is the always-on flight recorder: a bounded ring of the
// most recently completed spans. Record overwrites the oldest entry
// once the ring is full, so memory is fixed at capacity × record size
// no matter how long the process runs; Snapshot copies out the spans
// that ended inside a trailing window for an on-demand dump.
//
// A SpanRing is safe for concurrent use. The critical sections are a
// slot copy (Record) and a linear scan-copy (Snapshot); writers are
// never blocked on JSON encoding or I/O.
type SpanRing struct {
	mu   sync.Mutex
	recs ring[SpanRecord]
}

// NewSpanRing returns a ring holding the last capacity spans
// (minimum 16).
func NewSpanRing(capacity int) *SpanRing {
	return &SpanRing{recs: newRing[SpanRecord](max(capacity, 16))}
}

// Recorded returns the total number of spans ever recorded; recorded
// minus min(recorded, cap) spans have been overwritten.
func (r *SpanRing) Recorded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recs.pushed
}

// Record stores one completed span, overwriting the oldest once full.
func (r *SpanRing) Record(rec SpanRecord) {
	r.mu.Lock()
	r.recs.push(rec)
	r.mu.Unlock()
}

// Snapshot returns copies of the retained spans that ended at or
// after since, sorted by start time (ties: longer span first, so an
// enclosing span precedes the spans it contains).
func (r *SpanRing) Snapshot(since time.Time) []SpanRecord {
	r.mu.Lock()
	out := make([]SpanRecord, 0, len(r.recs.items))
	for _, rec := range r.recs.items {
		if !rec.End().Before(since) {
			out = append(out, rec)
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

// flightEvent is one B or E trace_event record of a flight dump.
// Unlike the -trace exporter's complete "X" events, dumps use
// begin/end pairs so validators (cmd/tracecheck) can check balance
// and per-lane monotonicity — exactly the properties a ring that
// overwrites oldest spans could silently lose.
type flightEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // µs since epoch
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// laneSpan is one open span during the flight-dump lane simulation.
type laneSpan struct {
	name string
	end  time.Time
}

// WriteFlight renders records as a Chrome trace_event JSON array of
// balanced B/E pairs with timestamps in µs relative to epoch.
//
// Lanes are re-assigned from scratch: each span goes to the first
// lane where it either nests inside that lane's innermost open span
// or starts after every open span there has ended. Each lane's event
// sequence is therefore properly nested and monotonic by construction
// — concurrent requests that shared recorder lane 0 come out on
// separate dump lanes instead of interleaving. The recorder's
// original lane survives as the "lane" arg on every B event.
//
// records must be sorted by start time with ties broken longer-first
// (Snapshot's order).
func WriteFlight(w io.Writer, recs []SpanRecord, epoch time.Time) error {
	var lanes [][]laneSpan // per-lane stack of open spans
	// Per-lane event sequences are built in simulation order (always
	// monotonic in ts within a lane), then merged by a stable sort on
	// ts — which preserves each lane's internal order.
	perLane := make([][]flightEvent, 0, 4)
	popUntil := func(lane int, t time.Time) {
		st := lanes[lane]
		for len(st) > 0 && !st[len(st)-1].end.After(t) {
			top := st[len(st)-1]
			st = st[:len(st)-1]
			perLane[lane] = append(perLane[lane], flightEvent{
				Name: top.name, Ph: "E", TS: usSince(epoch, top.end), PID: 1, TID: lane,
			})
		}
		lanes[lane] = st
	}
	for _, rec := range recs {
		lane := -1
		for i := range lanes {
			popUntil(i, rec.Start)
			st := lanes[i]
			if len(st) == 0 || !st[len(st)-1].end.Before(rec.End()) {
				lane = i
				break
			}
		}
		if lane == -1 {
			lanes = append(lanes, nil)
			perLane = append(perLane, nil)
			lane = len(lanes) - 1
		}
		args := make(map[string]any, len(rec.Args)+1)
		for _, arg := range rec.Args {
			args[arg.Key] = arg.Value
		}
		args["lane"] = rec.TID
		perLane[lane] = append(perLane[lane], flightEvent{
			Name: rec.Name, Ph: "B", TS: usSince(epoch, rec.Start), PID: 1, TID: lane, Args: args,
		})
		lanes[lane] = append(lanes[lane], laneSpan{name: rec.Name, end: rec.End()})
	}
	for i := range lanes {
		// Close everything still open; the zero time is after any end.
		for len(lanes[i]) > 0 {
			top := lanes[i][len(lanes[i])-1]
			lanes[i] = lanes[i][:len(lanes[i])-1]
			perLane[i] = append(perLane[i], flightEvent{
				Name: top.name, Ph: "E", TS: usSince(epoch, top.end), PID: 1, TID: i,
			})
		}
	}
	var events []flightEvent
	for _, seq := range perLane {
		events = append(events, seq...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

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

// usSince returns t in microseconds relative to epoch, clamped at 0.
func usSince(epoch, t time.Time) float64 {
	us := float64(t.Sub(epoch).Nanoseconds()) / 1e3
	if us < 0 {
		return 0
	}
	return us
}
