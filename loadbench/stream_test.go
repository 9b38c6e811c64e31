package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tradeoff/internal/service"
	"tradeoff/internal/simjob"
	"tradeoff/internal/sweep"
)

func firstPayloads(t *testing.T, workload string, seed uint64, client, n int) []payload {
	t.Helper()
	s, err := newStream(workload, seed, client)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]payload, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func samePayloads(a, b []payload) bool {
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) || a[i].points != b[i].points {
			return false
		}
	}
	return true
}

// The stream is a pure function of (workload, seed, client).
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a := firstPayloads(t, w, 7, 0, 200)
		if !samePayloads(a, firstPayloads(t, w, 7, 0, 200)) {
			t.Errorf("%s: two streams of seed 7 differ", w)
		}
		if samePayloads(a, firstPayloads(t, w, 8, 0, 200)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
		if samePayloads(a, firstPayloads(t, w, 7, 1, 200)) {
			t.Errorf("%s: clients 0 and 1 get the same stream", w)
		}
	}
	if _, err := newStream("nope", 1, 0); err == nil {
		t.Error("newStream accepted an unknown workload")
	}
}

// Every payload a stream, its warm-up or the catalog sends decodes
// with the service's own parsers, and each declares the point count
// the service enumerates.
func TestPayloadsParse(t *testing.T) {
	for _, w := range workloadNames {
		ps := append(firstPayloads(t, w, 3, 0, 300), warmup(w, 3)...)
		for _, p := range ps {
			route, _, _ := strings.Cut(p.path, "?")
			var err error
			switch route {
			case "/v1/sweep":
				_, err = sweep.ParseConfig(p.body)
			case "/v1/optimize":
				_, err = sweep.ParseOptimizeConfig(p.body)
			case "/v1/stall":
				var g simjob.Grid
				if g, err = simjob.ParseGrid(p.body); err == nil && len(g.Enumerate()) != p.points {
					t.Errorf("%s: %s enumerates %d points, payload says %d", w, p.body, len(g.Enumerate()), p.points)
				}
			case "/v1/tradeoff":
			default:
				t.Errorf("%s: unexpected route %s", w, p.path)
			}
			if err != nil {
				t.Errorf("%s: %s: %v", w, p.body, err)
			}
		}
	}
}

// interactive_mix draws /v1/tradeoff parameters at random; every draw
// must stay inside the model's domain.
func TestRandomTradeoffsAccepted(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Options{}).Handler())
	defer ts.Close()
	n := 0
	for _, p := range firstPayloads(t, interactiveMix, 11, 0, 2000) {
		if p.path != "/v1/tradeoff" {
			continue
		}
		n++
		resp, err := http.Post(ts.URL+p.path, "application/json", bytes.NewReader(p.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p.body, resp.StatusCode, body.Bytes())
		}
		if err := p.validate(body.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if n < 200 { // one draw in eight is a tradeoff
		t.Fatalf("only %d tradeoff payloads in 2000 draws", n)
	}
}
