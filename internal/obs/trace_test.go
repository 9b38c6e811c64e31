package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// fixedClock returns a now() hook that advances a fixed step per call,
// making span timestamps deterministic.
func fixedClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		cur := t
		t = t.Add(step)
		return cur
	}
}

func TestSpanRecordsAndExports(t *testing.T) {
	tr := NewTracer()
	tr.now = fixedClock(tr.epoch, time.Millisecond)

	ctx := WithTracer(context.Background(), tr)
	ctx, outer := StartSpan(ctx, "outer")
	outer.SetTID(3)
	outer.SetArg("slot", 3)
	_, inner := StartSpan(ctx, "inner")
	inner.End()
	outer.End()
	outer.End() // double End records once

	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	// inner ended first, so it is recorded first.
	if events[0].Name != "inner" || events[1].Name != "outer" {
		t.Fatalf("names = %q, %q", events[0].Name, events[1].Name)
	}
	// inner inherits outer's lane (set before inner started).
	if events[0].TID != 3 || events[1].TID != 3 {
		t.Fatalf("tids = %d, %d, want 3, 3", events[0].TID, events[1].TID)
	}
	for _, ev := range events {
		if ev.Ph != "X" || ev.PID != 1 || ev.Dur < 0 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if events[1].Args["slot"] != float64(3) {
		t.Fatalf("outer args = %v", events[1].Args)
	}
}

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "nothing")
	if span != nil {
		t.Fatal("span without tracer should be nil")
	}
	// All nil-span methods are safe.
	span.SetTID(1)
	span.SetArg("k", "v")
	span.End()
	if CurrentSpan(ctx) != nil {
		t.Fatal("no span should be attached")
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 0 {
		t.Fatalf("%d events, want 0", len(events))
	}
}

func TestSpanNameContext(t *testing.T) {
	ctx := context.Background()
	if got := SpanName(ctx, "map"); got != "map" {
		t.Fatalf("default span name = %q", got)
	}
	ctx = WithSpanName(ctx, "sweep_point")
	if got := SpanName(ctx, "map"); got != "sweep_point" {
		t.Fatalf("span name = %q", got)
	}
}

// TestArgsEncodeLikeAMap pins that span args, stored as a slice, encode
// to the bytes the equivalent map[string]any does: sorted keys, HTML
// escaping, and a re-set key keeping only its last value.
func TestArgsEncodeLikeAMap(t *testing.T) {
	tr := NewTracer()
	_, s := StartSpan(WithTracer(context.Background(), tr), "s")
	s.SetArg("line", 32)
	s.SetArg("path", "/v1/sweep?a=<b>&c")
	s.SetArg("cache_kb", 8)
	s.SetArg("sampled", true)
	s.SetArg("ratio", 0.25)
	s.SetArg("line", 64)
	want, err := json.Marshal(map[string]any{
		"line": 64, "path": "/v1/sweep?a=<b>&c", "cache_kb": 8, "sampled": true, "ratio": 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(s.args)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("args encode as %s, want %s", got, want)
	}
	if len(s.args) != 5 {
		t.Fatalf("%d args after re-setting one key, want 5", len(s.args))
	}
}
