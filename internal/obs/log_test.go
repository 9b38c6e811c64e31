package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// logAt writes one record stamped at, through l's handler, as l.Log
// would at that instant.
func logAt(t *testing.T, l *slog.Logger, at time.Time, level slog.Level, msg string, args ...any) {
	t.Helper()
	r := slog.NewRecord(at, level, msg, 0)
	r.Add(args...)
	if err := l.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	// 14:00 at UTC+2, and under a millisecond past it: the line shows
	// the instant in UTC, truncated to the millisecond.
	at := time.Date(2026, 8, 6, 14, 0, 0, 999_999, time.FixedZone("CEST", 2*3600))
	logAt(t, l, at, LevelInfo, "listening", "addr", ":8080", "workers", 4)
	want := `ts=2026-08-06T12:00:00.000Z level=info msg=listening addr=:8080 workers=4` + "\n"
	if buf.String() != want {
		t.Fatalf("line = %q, want %q", buf.String(), want)
	}
}

func TestLoggerQuoting(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Info("two words", "empty", "", "eq", "a=b", "ctl", "a\nb")
	line := buf.String()
	for _, want := range []string{`msg="two words"`, `empty=""`, `eq="a=b"`, `ctl="a\nb"`} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], " level=warn ") || !strings.Contains(lines[1], " level=error ") {
		t.Fatalf("lines = %q", lines)
	}
	ctx := context.Background()
	if l.Enabled(ctx, LevelDebug) || !l.Enabled(ctx, LevelError) {
		t.Fatal("Enabled disagrees with level")
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo).With("request_id", "abc123")
	l.Info("access", "status", 200)
	if want := "msg=access request_id=abc123 status=200"; !strings.Contains(buf.String(), want) {
		t.Fatalf("line = %q, want it to contain %q", buf.String(), want)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn, "warning": LevelWarn, "ERROR": LevelError} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TracerFrom(ctx) != nil || EngineStatsFrom(ctx) != nil {
		t.Fatal("empty context should carry nothing")
	}
	tr, st := NewTracer(), NewEngineStats()
	ctx = WithTracer(ctx, tr)
	ctx = WithEngineStats(ctx, st)
	if TracerFrom(ctx) != tr || EngineStatsFrom(ctx) != st {
		t.Fatal("context round-trip failed")
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids %q, %q", a, b)
	}
	if !ValidRequestID(a) || !ValidRequestID("trace-1.2_3") {
		t.Fatal("valid ids rejected")
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space", "newline\n", `quote"`} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true", bad)
		}
	}
}
