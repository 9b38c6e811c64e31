package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// t0 is an arbitrary fixed epoch; flight timestamps are relative.
var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func rec(name string, startUS, durUS int64, tid int) SpanRecord {
	return SpanRecord{
		Name:  name,
		Start: t0.Add(time.Duration(startUS) * time.Microsecond),
		Dur:   time.Duration(durUS) * time.Microsecond,
		TID:   tid,
	}
}

func TestSpanRingOverwritesOldest(t *testing.T) {
	r := NewSpanRing(16)
	for i := 0; i < 40; i++ {
		r.Record(rec(fmt.Sprintf("s%d", i), int64(i)*10, 5, 0))
	}
	if got := r.Recorded(); got != 40 {
		t.Fatalf("Recorded() = %d, want 40", got)
	}
	snap := r.Snapshot(time.Time{})
	if len(snap) != 16 {
		t.Fatalf("kept %d spans, want capacity 16", len(snap))
	}
	// Oldest retained is s24: 40 recorded into 16 slots.
	if snap[0].Name != "s24" || snap[15].Name != "s39" {
		t.Fatalf("retained window [%s, %s], want [s24, s39]", snap[0].Name, snap[15].Name)
	}
}

func TestSpanRingSnapshotWindow(t *testing.T) {
	r := NewSpanRing(64)
	r.Record(rec("old", 0, 10, 0))
	r.Record(rec("recent", 100, 10, 0))
	since := t0.Add(50 * time.Microsecond)
	snap := r.Snapshot(since)
	if len(snap) != 1 || snap[0].Name != "recent" {
		t.Fatalf("Snapshot(since) = %+v, want just \"recent\"", snap)
	}
}

func TestSpanRingSnapshotOrder(t *testing.T) {
	r := NewSpanRing(16)
	r.Record(rec("child", 10, 5, 0))
	r.Record(rec("parent", 10, 50, 0))
	r.Record(rec("first", 0, 5, 0))
	snap := r.Snapshot(time.Time{})
	want := []string{"first", "parent", "child"} // start asc, ties longer-first
	for i, name := range want {
		if snap[i].Name != name {
			t.Fatalf("snapshot order %v, want %v", names(snap), want)
		}
	}
}

func names(recs []SpanRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}

// flightLaneCheck replays a flight dump the way cmd/tracecheck does:
// per-lane monotonic timestamps and properly nested same-name B/E
// pairs with nothing left open.
func flightLaneCheck(t *testing.T, dump []byte) (spans int) {
	t.Helper()
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(dump, &events); err != nil {
		t.Fatalf("flight dump is not a JSON array: %v\n%s", err, dump)
	}
	lastTS := map[int]float64{}
	stacks := map[int][]string{}
	for i, ev := range events {
		if ev.TS < 0 {
			t.Fatalf("event %d (%s): negative ts %v", i, ev.Name, ev.TS)
		}
		if prev, ok := lastTS[ev.TID]; ok && ev.TS < prev {
			t.Fatalf("event %d (%s): lane %d goes back in time (%v after %v)", i, ev.Name, ev.TID, ev.TS, prev)
		}
		lastTS[ev.TID] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
			spans++
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("event %d: E %q does not match lane %d stack %v", i, ev.Name, ev.TID, st)
			}
			stacks[ev.TID] = st[:len(st)-1]
		default:
			t.Fatalf("event %d (%s): phase %q, want B or E", i, ev.Name, ev.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			t.Fatalf("lane %d left open spans %v", tid, st)
		}
	}
	return spans
}

func TestWriteFlightBalancedAndMonotonic(t *testing.T) {
	r := NewSpanRing(64)
	// Two overlapping "requests" that both recorded on lane 0, each
	// with a nested child — the shape that forces lane re-assignment.
	r.Record(rec("child_a", 10, 20, 0))
	r.Record(rec("request_a", 0, 100, 0))
	r.Record(rec("child_b", 60, 30, 0))
	r.Record(rec("request_b", 50, 100, 0))
	// A span that ends exactly when the next one starts on its lane.
	r.Record(rec("tail_1", 200, 50, 0))
	r.Record(rec("tail_2", 250, 50, 0))

	var buf bytes.Buffer
	if err := WriteFlight(&buf, r.Snapshot(time.Time{}), t0); err != nil {
		t.Fatal(err)
	}
	if got := flightLaneCheck(t, buf.Bytes()); got != 6 {
		t.Fatalf("dump holds %d spans, want 6", got)
	}
}

func TestWriteFlightKeepsOriginalLaneArg(t *testing.T) {
	r := NewSpanRing(16)
	r.Record(rec("s", 0, 10, 7))
	var buf bytes.Buffer
	if err := WriteFlight(&buf, r.Snapshot(time.Time{}), t0); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if lane, ok := events[0].Args["lane"].(float64); !ok || lane != 7 {
		t.Fatalf("B event args = %v, want lane 7", events[0].Args)
	}
}

func TestWriteFlightEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFlight(&buf, nil, t0); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty dump = %q (err %v), want []", buf.Bytes(), err)
	}
}

// TestSpanRingConcurrentRecordAndDump is the -race test for the
// recorder's core claim: writers are never blocked on (or racing
// with) a concurrent dump.
func TestSpanRingConcurrentRecordAndDump(t *testing.T) {
	r := NewSpanRing(128)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(SpanRecord{
					Name:  "span",
					Start: time.Now(),
					Dur:   time.Duration(i%100) * time.Microsecond,
					TID:   w,
					Args:  Args{{Key: "i", Value: i}},
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for dumping := true; dumping; {
		select {
		case <-done:
			dumping = false
		default:
		}
		var buf bytes.Buffer
		if err := WriteFlight(&buf, r.Snapshot(time.Now().Add(-time.Second)), t0); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
}

// TestTracerTeesIntoRing pins the recorder seam: spans completed on a
// request tracer land in the global ring, and the per-request event
// limit drops locally without losing ring records.
func TestTracerTeesIntoRing(t *testing.T) {
	ring := NewSpanRing(64)
	tr := NewRequestTracer(ring, 2)
	for i := 0; i < 5; i++ {
		s := &Span{tracer: tr, name: fmt.Sprintf("s%d", i), start: tr.now()}
		s.End()
	}
	if got := ring.Recorded(); got != 5 {
		t.Fatalf("ring recorded %d spans, want all 5", got)
	}
	if got := tr.Len(); got != 2 {
		t.Fatalf("tracer kept %d events, want limit 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("tracer dropped %d events, want 3", got)
	}
}
