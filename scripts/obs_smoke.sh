#!/bin/sh
# obs_smoke.sh boots tradeoffd with the SLO layer on, drives real
# traffic, and validates every always-on observability surface end to
# end: the flight recorder's dump (via cmd/tracecheck), the
# metrics-history JSON, the slow-request exemplar store, the live
# dashboard page, and the tradeoffd_slo_* Prometheus gauges.
#
# Run as `make obs-smoke` (or `make flight-smoke` for just the flight
# half). CI blocks on it: the history check polls for its tick instead
# of sleeping a fixed time.
set -eu

PORT="${OBS_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
OUT="${OBS_SMOKE_OUT:-out}"
ONLY="${1:-all}" # "flight" validates just the recorder dump

mkdir -p "$OUT"
go build -o "$OUT/tradeoffd" ./cmd/tradeoffd
go build -o "$OUT/tracecheck" ./cmd/tracecheck

"$OUT/tradeoffd" -addr "127.0.0.1:$PORT" -history-interval 500ms \
  -slo 'tradeoff:p99<250ms,err<1%' 2>"$OUT/obs-smoke-tradeoffd.log" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

ready=0
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "obs-smoke: tradeoffd never became ready" >&2; exit 1; }

# Enough traffic that every surface has data: past the exemplar
# warm-up gate, across two endpoints, with one bad request for the
# error counters.
for _ in $(seq 1 40); do
  curl -fsS -X POST -d '{"feature":"bus"}' "$BASE/v1/tradeoff" >/dev/null
done
curl -sS -X POST -d '{"feature":"nope"}' "$BASE/v1/tradeoff" >/dev/null

# Flight recorder: the dump must be a balanced B/E trace_event array
# holding at least the 41 request spans.
curl -fsS "$BASE/debug/flight?last=5m" >"$OUT/obs-smoke-flight.json"
"$OUT/tracecheck" -min 41 "$OUT/obs-smoke-flight.json"

if [ "$ONLY" = "flight" ]; then
  echo "flight-smoke: ok"
  exit 0
fi

# Metrics history: poll (for at most 10 s) until a snapshot tick
# reflects the traffic: the service counters, the per-route duration
# series the SLO layer reads, and the SLO gauges themselves.
series=requests_total,errors_total,request_duration_v1_tradeoff_p99_ns,slo_burning_v1_tradeoff
ok=0
deadline=$(($(date +%s) + 10))
while [ "$(date +%s)" -lt "$deadline" ]; do
  if curl -fsS "$BASE/metrics/history?series=$series&window=5m" \
    | jq -e '(.interval_ms > 0)
             and (.series.requests_total[-1].v >= 41)
             and (.series.errors_total[-1].v >= 1)
             and (.series.request_duration_v1_tradeoff_p99_ns[-1].v > 0)
             and (.series.slo_burning_v1_tradeoff | length >= 1)' >/dev/null; then
    ok=1; break
  fi
  sleep 0.1
done
[ "$ok" = 1 ] || { echo "obs-smoke: metrics history never reflected the traffic" >&2; exit 1; }

# Exemplar store: a valid document; captures depend on timing, so only
# the shape is asserted.
curl -fsS "$BASE/debug/slow" | jq -e '.kept >= 0 and (.exemplars | type == "array")' >/dev/null

# Dashboard page (the SSE half is covered by the service tests).
# grep without -q drains the pipe, so curl never sees a closed body.
curl -fsS "$BASE/debug/dash" | grep 'tradeoffd live' >/dev/null

# SLO layer: burn-rate gauges on the Prometheus exposition and the slo
# document in the JSON one, beside the route's request counter.
curl -fsS "$BASE/metrics?format=prom" | grep '^tradeoffd_slo_burning' >/dev/null
curl -fsS "$BASE/metrics" \
  | jq -e '(.slo | type == "array" and length == 1)
           and (.endpoints["/v1/tradeoff"].requests >= 41)' >/dev/null

echo "obs-smoke: ok"
