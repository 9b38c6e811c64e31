// Package obs is the repo's dependency-free observability core:
// context-propagated tracing spans exportable as Chrome trace_event
// JSON, lock-cheap log-bucketed latency histograms with quantile
// estimation, a leveled key=value logger, and request-ID generation
// and validation.
// A Registry names each metric family once; Prometheus exposition
// (WritePrometheus) and the in-process metrics History both iterate
// it, so no exporter spells a series name of its own.
//
// The package deliberately depends on nothing but the standard
// library, so every layer — internal/engine, internal/service, the
// CLIs — can instrument itself without import cycles or new
// dependencies. The instrumentation hooks live in the engine (see
// engine.Map and engine.Memo), so any consumer that threads a
// context through the engine gets per-job spans and queue-wait
// accounting for free; consumers that don't install a Tracer pay a
// couple of nil checks per job and nothing else.
//
// The engine instruments flow through the context:
//
//	ctx = obs.WithTracer(ctx, tracer)     // spans (nil-safe when absent)
//	ctx = obs.WithEngineStats(ctx, st)    // engine histograms/counters
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// ctxKey is the private type for this package's context keys.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	spanNameKey
	engineStatsKey
)

// WithTracer returns a context whose engine jobs and explicit
// StartSpan calls record into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's Tracer, or nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpanName overrides the name engine.Map gives its per-item spans
// (default "map"), so a sweep's points trace as "sweep_point" and a
// replay's as "replay_point" without the engine knowing either caller.
func WithSpanName(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, spanNameKey, name)
}

// SpanName returns the context's engine span name, or def.
func SpanName(ctx context.Context, def string) string {
	if n, ok := ctx.Value(spanNameKey).(string); ok && n != "" {
		return n
	}
	return def
}

// CurrentSpan returns the innermost span started on this context, or
// nil. Engine workers use it to let job functions annotate the span
// that wraps them (e.g. naming the experiment an item evaluates).
func CurrentSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// WithEngineStats returns a context whose engine.Map and engine.Memo
// calls record into st's histograms and counters.
func WithEngineStats(ctx context.Context, st *EngineStats) context.Context {
	return context.WithValue(ctx, engineStatsKey, st)
}

// EngineStatsFrom returns the context's EngineStats, or nil.
func EngineStatsFrom(ctx context.Context) *EngineStats {
	st, _ := ctx.Value(engineStatsKey).(*EngineStats)
	return st
}

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; IDs only
		// correlate log lines, so degrade to a constant rather than die.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a client-supplied X-Request-ID is
// safe to echo into headers and log lines: 1–64 bytes of
// [A-Za-z0-9._-]. Anything else is replaced with a generated ID so a
// hostile header cannot inject log fields or control characters.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
