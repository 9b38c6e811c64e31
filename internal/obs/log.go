package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// The four levels tradeoffd logs at.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel maps a flag value onto a level: debug, info, warn (or
// warning) or error, in any case.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger returns a logger writing lines at or above level to w as
// key=value text:
//
//	ts=2026-08-06T12:00:00.000Z level=info msg=listening addr=:8080
//
// The timestamp is UTC to the millisecond and the level is lowercase;
// everything else is slog's TextHandler, which quotes a value only
// when it holds spaces, quotes, '=' or control characters.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: lineFormat}))
}

// lineFormat renames slog's built-in time key to ts, in UTC, and
// lowercases its level.
func lineFormat(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch {
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.Time("ts", a.Value.Time().UTC())
	case a.Key == slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			a.Value = slog.StringValue(levelName(lv))
		}
	}
	return a
}

// levelName is the lowercase name of lv, without allocating for the
// four named levels.
func levelName(lv slog.Level) string {
	switch lv {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return strings.ToLower(lv.String())
}
