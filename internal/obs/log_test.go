package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func testLogger(buf *bytes.Buffer, level Level) *Logger {
	l := NewLogger(buf, level)
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	l.now = func() time.Time { return fixed }
	return l
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, LevelInfo)
	l.Info("listening", "addr", ":8080", "workers", 4)
	want := `ts=2026-08-06T12:00:00.000Z level=info msg=listening addr=:8080 workers=4` + "\n"
	if buf.String() != want {
		t.Fatalf("line = %q, want %q", buf.String(), want)
	}
}

func TestLoggerQuoting(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, LevelInfo)
	l.Info("two words", "empty", "", "eq", "a=b", "ctl", "a\nb")
	line := buf.String()
	for _, want := range []string{`msg="two words"`, `empty=""`, `eq="a=b"`, `ctl="a\nb"`} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestLoggerLevelsAndNil(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, LevelWarn)
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Fatalf("lines = %q", lines)
	}
	if l.Enabled(LevelDebug) || !l.Enabled(LevelError) {
		t.Fatal("Enabled disagrees with level")
	}

	var nilLogger *Logger
	nilLogger.Info("safe")             // no panic
	nilLogger.With("k", "v").Error("") // With on nil stays nil
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger must be disabled")
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	l := testLogger(&buf, LevelInfo).With("request_id", "abc123")
	l.Info("access", "status", 200)
	if want := "msg=access request_id=abc123 status=200"; !strings.Contains(buf.String(), want) {
		t.Fatalf("line = %q, want it to contain %q", buf.String(), want)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"debug": LevelDebug, "INFO": LevelInfo, "warning": LevelWarn, "error": LevelError} {
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
