package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"
)

// The four workloads. Each is a request stream two closed-loop clients
// replay against one tradeoffd; README.md explains why each was chosen
// and which layer it loads.
const (
	sweepSim       = "sweep_sim"
	sweepCurves    = "sweep_curves"
	stallReplay    = "stall_replay"
	interactiveMix = "interactive_mix"
)

var workloadNames = []string{sweepSim, sweepCurves, stallReplay, interactiveMix}

// The server's workload models and programs, spelled out so the
// benchmark's inputs do not change when the program's lists do.
var (
	traceWorkloads = []string{"nasa7", "swm256", "wave5", "ear", "doduc", "hydro2d", "zipf"}
	programs       = traceWorkloads[:6]
	stallFeatures  = []string{"FS", "BL", "BNL1", "BNL2", "BNL3", "NB"}
	lineAxis       = []int{16, 32, 64, 128}
	busAxis        = []int{32, 64}
	cacheAxis64    = []int{1, 2, 4, 8, 16, 32, 64, 128} // × lineAxis × busAxis = 64 points
)

// simRefs and replayRefs are the trace lengths of sweep_sim's design
// points and stall_replay's replay points, a quarter and a half of
// curveRefs: short enough that one window collects twice the 1000
// requests a p99 needs on a two-core machine, so a run whose host
// slows it by a third still reports.
const (
	simRefs    = 5_000
	replayRefs = 10_000
)

// curveRefs is the trace length of every curve and model payload.
const curveRefs = 20_000

// clients is the closed loop's size: callers of tradeoffd (scripts,
// notebooks, the dashboard) each wait for their reply, and two match
// the two cores the benchmark was sized on.
const clients = 2

// checkSeed seeds the correctness payloads whose response digests are
// committed in testdata/digests.json.
const checkSeed = 1994

// checkPayloads is how many payloads of each workload are checked.
const checkPayloads = 8

// payload is one request of a stream.
type payload struct {
	path   string // URL path and query, e.g. "/v1/sweep?format=csv"
	body   []byte
	points int // design points the response must report
}

// csv reports whether the payload asks for a CSV response.
func (p payload) csv() bool { return strings.HasSuffix(p.path, "?format=csv") }

// validate checks a 200 response body: it must parse, and its design
// point count must equal the payload's.
func (p payload) validate(body []byte) error {
	if p.csv() {
		if rows := bytes.Count(body, []byte{'\n'}) - 1; rows != p.points {
			return fmt.Errorf("%s: %d CSV rows, want %d", p.path, rows, p.points)
		}
		return nil
	}
	var doc struct {
		Count   int    `json:"count"`
		Total   int    `json:"total"`
		Feature string `json:"feature"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: %w", p.path, err)
	}
	n := doc.Count
	switch {
	case strings.HasPrefix(p.path, "/v1/tradeoff"):
		if doc.Feature == "" {
			return fmt.Errorf("%s: response names no feature", p.path)
		}
		n = 1
	case strings.HasPrefix(p.path, "/v1/optimize"):
		n = doc.Total
	}
	if n != p.points {
		return fmt.Errorf("%s: %d design points, want %d", p.path, n, p.points)
	}
	return nil
}

// sweepReq is the wire form of /v1/sweep and /v1/optimize payloads.
type sweepReq struct {
	CacheKB    []int      `json:"cache_kb"`
	LineBytes  []int      `json:"line_bytes"`
	BusBits    []int      `json:"bus_bits"`
	LatencyNS  float64    `json:"latency_ns"`
	TransferNS float64    `json:"transfer_ns"`
	CPUNS      float64    `json:"cpu_ns"`
	HitSource  string     `json:"hit_source"`
	Mode       string     `json:"mode,omitempty"`
	SimRefs    int        `json:"sim_refs,omitempty"`
	Seed       uint64     `json:"seed,omitempty"`
	Levels     []levelReq `json:"levels,omitempty"`
	AreaBudget float64    `json:"area_budget,omitempty"`
}

type levelReq struct {
	CacheKB   []int   `json:"cache_kb"`
	LatencyNS float64 `json:"latency_ns"`
}

// stallReq is the wire form of /v1/stall payloads.
type stallReq struct {
	Programs []string `json:"programs"`
	Refs     int      `json:"refs"`
	Seed     uint64   `json:"seed,omitempty"`
	Features []string `json:"features"`
	CacheKB  []int    `json:"cache_kb,omitempty"`
	BetaM    []int64  `json:"beta_m"`
}

// tradeoffReq is the wire form of /v1/tradeoff payloads.
type tradeoffReq struct {
	Feature  string  `json:"feature"`
	HitRatio float64 `json:"hit_ratio"`
	L        float64 `json:"l"`
	D        float64 `json:"d"`
	BetaM    float64 `json:"beta_m"`
	Phi      float64 `json:"phi,omitempty"`
	Q        float64 `json:"q,omitempty"`
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types above always marshal
	}
	return data
}

// sweepPoints counts a flat sweep's design points: the server skips
// lines shorter than two bus transfers.
func sweepPoints(r sweepReq) int {
	n := 0
	for range r.CacheKB {
		for _, line := range r.LineBytes {
			for _, bus := range r.BusBits {
				if line >= 2*(bus/8) {
					n++
				}
			}
		}
	}
	return n
}

func sweepPayload(r sweepReq, csv bool) payload {
	p := payload{path: "/v1/sweep", body: mustJSON(r), points: sweepPoints(r)}
	if csv {
		p.path += "?format=csv"
	}
	return p
}

// optimizeReq is the three-depth hierarchy search of BENCH_sweep.json's
// optimize_mrc_40pt row: 40 design points, all within the budget.
func optimizeReq(hitSource string, seed uint64) sweepReq {
	return sweepReq{
		CacheKB: []int{4, 8}, LineBytes: []int{16, 32}, BusBits: busAxis,
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: hitSource, SimRefs: curveRefs, Seed: seed,
		Levels:     []levelReq{{CacheKB: []int{32, 64}, LatencyNS: 90}, {CacheKB: []int{256}, LatencyNS: 180}},
		AreaBudget: 2e7,
	}
}

func optimizePayload(r sweepReq, csv bool) payload {
	p := payload{path: "/v1/optimize", body: mustJSON(r), points: 40}
	if csv {
		p.path += "?format=csv"
	}
	return p
}

// sweep64 is the 8 sizes × 4 lines × 2 buses grid.
func sweep64(hitSource string, seed uint64, latencyNS float64) sweepReq {
	return sweepReq{
		CacheKB: cacheAxis64, LineBytes: lineAxis, BusBits: busAxis,
		LatencyNS: latencyNS, TransferNS: 60, CPUNS: 30,
		HitSource: hitSource, SimRefs: curveRefs, Seed: seed,
	}
}

func stallPayload(r stallReq, csv bool) payload {
	p := payload{
		path:   "/v1/stall",
		body:   mustJSON(r),
		points: len(r.Programs) * len(r.Features) * max(len(r.CacheKB), 1) * len(r.BetaM),
	}
	if csv {
		p.path += "?format=csv"
	}
	return p
}

// replayGrid is one stall_replay grid: one program, all six features ×
// two cache sizes × two memory cycle times, 24 replay points.
func replayGrid(program string, seed uint64, betaLow, betaHigh int64) payload {
	return stallPayload(stallReq{
		Programs: []string{program}, Refs: replayRefs, Seed: seed,
		Features: stallFeatures, CacheKB: []int{4, 16}, BetaM: []int64{betaLow, betaHigh},
	}, false)
}

// tradeoffPayload prices one feature; the endpoint is JSON only.
func tradeoffPayload(r tradeoffReq) payload {
	return payload{path: "/v1/tradeoff", body: mustJSON(r), points: 1}
}

// catalog is interactive_mix's fixed payload set: all four POST
// endpoints, JSON and CSV. Warm-up sends each once, so the window's
// replays are response-memo hits. Its curve-backed entries use seed 1
// and 20000 refs, the curves the mix's own mrc: sweeps keep resident.
func catalog() []payload {
	modelSweep := sweepReq{
		CacheKB: []int{4, 8, 16, 32, 64}, LineBytes: []int{16, 32, 64}, BusBits: busAxis,
		LatencyNS: 360, TransferNS: 60, CPUNS: 30, HitSource: "model",
	}
	modelOptimize := optimizeReq("model", 0)
	smallGrid := stallReq{Programs: []string{"nasa7"}, Refs: 4000, Features: []string{"FS", "BNL3"}, BetaM: []int64{4, 10}}
	earGrid := stallReq{Programs: []string{"ear"}, Refs: curveRefs, Seed: 1, Features: []string{"BL", "NB"}, CacheKB: []int{8}, BetaM: []int64{10}}
	return []payload{
		tradeoffPayload(tradeoffReq{Feature: "bus", HitRatio: 0.95, L: 32, D: 4, BetaM: 10}),
		tradeoffPayload(tradeoffReq{Feature: "stall", HitRatio: 0.95, L: 32, D: 4, BetaM: 10, Phi: 2}),
		tradeoffPayload(tradeoffReq{Feature: "wbuf", HitRatio: 0.9, L: 64, D: 8, BetaM: 20}),
		tradeoffPayload(tradeoffReq{Feature: "pipe", HitRatio: 0.95, L: 32, D: 4, BetaM: 10, Q: 2}),
		sweepPayload(modelSweep, false),
		sweepPayload(modelSweep, true),
		sweepPayload(sweep64("mrc:nasa7", 1, 360), false),
		sweepPayload(sweep64("mrc:nasa7", 1, 360), true),
		stallPayload(smallGrid, false),
		stallPayload(smallGrid, true),
		stallPayload(earGrid, false),
		stallPayload(earGrid, true),
		optimizePayload(modelOptimize, false),
		optimizePayload(modelOptimize, true),
		optimizePayload(optimizeReq("mrc:ear", 1), false),
		optimizePayload(optimizeReq("mrc:ear", 1), true),
	}
}

// stream is one client's payload sequence: a pure function of
// (workload, seed, client).
type stream struct {
	workload string
	rng      *rand.Rand
	catalog  []payload
}

func newStream(workload string, seed uint64, client int) (*stream, error) {
	if !knownWorkload(workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(workload)) // fnv's Write cannot fail
	s := &stream{workload: workload, rng: rand.New(rand.NewPCG(seed, h.Sum64()+uint64(client)))}
	if workload == interactiveMix {
		s.catalog = catalog()
	}
	return s, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// freshSeed returns a trace seed no earlier request of the run is
// likely to have used, so neither the response memo nor a curve cache
// can answer the request.
func (s *stream) freshSeed() uint64 { return 1 + s.rng.Uint64N(1<<31) }

func (s *stream) pick(names []string) string { return names[s.rng.IntN(len(names))] }

// next returns the stream's next payload.
func (s *stream) next() payload {
	switch s.workload {
	case sweepSim:
		return sweepPayload(sweepReq{
			CacheKB: []int{2, 8, 32, 128}, LineBytes: lineAxis, BusBits: busAxis,
			LatencyNS: 360, TransferNS: 60, CPUNS: 30,
			HitSource: "sim:" + s.pick(traceWorkloads), SimRefs: simRefs, Seed: s.freshSeed(),
		}, false)
	case sweepCurves:
		w := s.pick(traceWorkloads)
		if s.rng.IntN(4) == 3 {
			return optimizePayload(optimizeReq("mrc:"+w, s.freshSeed()), false)
		}
		source := "mrc:" + w
		if s.rng.IntN(4) == 0 {
			source = "mrc~:" + w
		}
		return sweepPayload(sweep64(source, s.freshSeed(), 360), false)
	case stallReplay:
		p := s.pick(programs)
		seed := 1 + s.rng.Uint64N(4)
		return replayGrid(p, seed, 2+s.rng.Int64N(8), 10+s.rng.Int64N(30))
	default: // interactiveMix
		// Of every eight requests, three on average are cheap (catalog
		// replays and tradeoffs) and five are 64-point sweeps. An even
		// split would put the median latency in the gap between the
		// cheap and the sweep requests, where it jumps with either
		// kind's tail; this one puts it inside the model sweeps.
		switch k := s.rng.IntN(8); {
		case k < 2:
			return s.catalog[s.rng.IntN(len(s.catalog))]
		case k < 3:
			l, d := lineAxis[s.rng.IntN(len(lineAxis))], 4<<s.rng.IntN(2)
			return tradeoffPayload(tradeoffReq{
				Feature:  s.pick([]string{"bus", "stall", "wbuf", "pipe"}),
				HitRatio: 0.8 + float64(s.rng.IntN(1900))/1e4,
				L:        float64(l),
				D:        float64(d),
				BetaM:    float64(2 + s.rng.IntN(39)),
				Phi:      1 + float64(s.rng.IntN(2*l/d-1))/2, // φ ∈ [1, L/D]
				Q:        float64(1 + s.rng.IntN(4)),
			})
		case k < 5:
			return sweepPayload(sweep64("mrc:"+s.pick(traceWorkloads), 1+s.rng.Uint64N(2), float64(100+s.rng.IntN(900))), false)
		default:
			r := sweep64("mrc:"+s.pick(traceWorkloads), 1, float64(100+s.rng.IntN(900)))
			r.Mode = "model"
			return sweepPayload(r, true)
		}
	}
}

// warmup returns the deterministic requests that precede a workload's
// window: enough to reach the steady state the window measures.
func warmup(workload string, seed uint64) []payload {
	var out []payload
	switch workload {
	case sweepSim, sweepCurves:
		n := 10
		if workload == sweepCurves {
			n = 20
		}
		// A stream no client replays; workload is known here.
		s, _ := newStream(workload, seed, clients)
		for i := 0; i < n; i++ {
			out = append(out, s.next())
		}
	case stallReplay:
		// Materialize every trace the window replays.
		for _, p := range programs {
			for seed := uint64(1); seed <= 4; seed++ {
				out = append(out, replayGrid(p, seed, 2, 10))
			}
		}
	case interactiveMix:
		// The catalog, then the 56 exact curves (7 workloads × 2 seeds
		// × 4 lines) and the 28 analytic ones the window reads.
		out = append(out, catalog()...)
		for _, w := range traceWorkloads {
			for seed := uint64(1); seed <= 2; seed++ {
				out = append(out, sweepPayload(sweep64("mrc:"+w, seed, 360), false))
			}
			r := sweep64("mrc:"+w, 1, 360)
			r.Mode = "model"
			out = append(out, sweepPayload(r, true))
		}
	}
	return out
}

// checks returns the workload's correctness payloads.
func checks(workload string) []payload {
	s, _ := newStream(workload, checkSeed, 0) // callers pass a known workload
	out := make([]payload, checkPayloads)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
