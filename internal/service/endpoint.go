package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
)

// endpoint is one declarative POST route: the five stages every
// evaluation endpoint shares, each mapped onto a fixed HTTP status.
// handle() turns it into the full pipeline
//
//	decode+defaults+validate (400) → limits (422) → format (400) →
//	canonical key (400) → memo+singleflight → run (422, or 499 when
//	the client hung up) → finite check (422) → encode JSON|CSV →
//	respond+cache
//
// so registering the next endpoint means filling in this struct, not
// re-writing the pipeline.
type endpoint[Req, Res any] struct {
	// name is the route, e.g. "/v1/sweep"; it namespaces the cache key
	// and the per-endpoint metrics.
	name string
	// decode parses, defaults and validates the request body.
	// Errors report as 400.
	decode func(body []byte) (Req, error)
	// limits bounds untrusted payloads; nil means unlimited.
	// Errors report as 422.
	limits func(req Req) error
	// key canonicalizes the request into a deterministic memoization
	// key: two requests differing only in field order, whitespace or
	// spelled-out defaults share one entry. Errors report as 400.
	key func(req Req) ([]byte, error)
	// run evaluates the request; it sees the request context, so a
	// disconnected client cancels the evaluation (499). Other errors
	// report as 422.
	run func(ctx context.Context, req Req) (Res, error)
	// encodeJSON shapes the JSON response body.
	encodeJSON func(res Res) any
	// encodeCSV writes the CSV form; nil marks a JSON-only endpoint,
	// which ignores format negotiation entirely.
	encodeCSV func(w io.Writer, res Res) error
}

// handle builds the HTTP handler for an endpoint. Responses are
// memoized in the server's byte-bounded LRU keyed by
// (route, format, canonical request); the memo's singleflight makes N
// concurrent identical requests share exactly one evaluation — the
// laggards wait for the first run instead of repeating it.
func handle[Req, Res any](s *Server, ep endpoint[Req, Res]) http.HandlerFunc {
	stats := s.metrics.endpoint(ep.name)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		req, err := ep.decode(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if ep.limits != nil {
			if err := ep.limits(req); err != nil {
				httpError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
		}
		format := "json"
		if ep.encodeCSV != nil {
			if format, err = requestFormat(r); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		canon, err := ep.key(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}

		key := ep.name + "|" + format + "|" + string(canon)
		ri := reqInfoFrom(r.Context())
		if ri != nil {
			ri.key = keyHash(key)
		}
		resp, shared, err := s.cache.Do(r.Context(), key, func(ctx context.Context) (cachedResponse, error) {
			stats.evaluations.Add(1)
			res, err := ep.run(ctx, req)
			if err != nil {
				return cachedResponse{}, err
			}
			if field, f, found := nonFinite(reflect.ValueOf(res)); found {
				return cachedResponse{}, fmt.Errorf("result %s = %v: the inputs overflow float64 arithmetic", field, f)
			}
			if format == "csv" {
				var buf bytes.Buffer
				if err := ep.encodeCSV(&buf, res); err != nil {
					return cachedResponse{}, err
				}
				return cachedResponse{contentType: "text/csv; charset=utf-8", body: buf.Bytes()}, nil
			}
			return cachedResponse{contentType: "application/json", body: mustJSON(ep.encodeJSON(res))}, nil
		})
		switch {
		case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
			// Client went away; nobody is reading, don't poison counters
			// with a 5xx nor cache a partial result.
			httpError(w, statusClientClosedRequest, "request cancelled")
			return
		case err != nil:
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}

		cacheState := "miss"
		if shared {
			s.metrics.cacheHits.Add(1)
			cacheState = "hit"
		} else {
			s.metrics.cacheMisses.Add(1)
		}
		if ri != nil {
			ri.cache = cacheState
		}
		w.Header().Set("Content-Type", resp.contentType)
		w.Header().Set("X-Cache", cacheState)
		_, _ = w.Write(resp.body) // a failed write means the client left
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was written.
const statusClientClosedRequest = 499

// requestFormat picks the response encoding: ?format=csv|json wins,
// otherwise an Accept: text/csv header, otherwise JSON.
func requestFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "csv", "json":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want json or csv)", f)
	}
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/csv") {
		return "csv", nil
	}
	return "json", nil
}

// nonFinite finds the first NaN or ±Inf float reachable from v and
// returns it with the JSON name of the struct field holding it. Inputs
// that overflow float64 arithmetic (a 1e308 latency over a 1e-300
// cycle time) evaluate to such values, which JSON cannot spell and a
// CSV cell would spell differently, so the pipeline rejects them
// before either encoder runs, identically for both formats.
func nonFinite(v reflect.Value) (field string, f float64, found bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f = v.Float()
		return "", f, math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if field, f, found = nonFinite(v.Index(i)); found {
				return field, f, true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if field, f, found = nonFinite(it.Value()); found {
				return field, f, true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if field, f, found = nonFinite(v.Field(i)); found {
				if field == "" {
					field, _, _ = strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
				}
				return field, f, true
			}
		}
	}
	return "", 0, false
}
