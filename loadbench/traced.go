package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/memory"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/service"
	"tradeoff/internal/simjob"
	"tradeoff/internal/stall"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// tracedRing is the traced server's flight-recorder capacity: room for
// a whole traced window of the three kernel workloads. interactive_mix
// wraps it and is measured on the spans it keeps.
const tracedRing = 1 << 18

// traceDir is where a traced run writes its Chrome trace_event files,
// relative to the repository root.
var traceDir = filepath.Join(".bench_build", "traces")

// --- /metrics?format=prom ---------------------------------------------

// promSample reads one sample of a Prometheus text exposition.
func promSample(doc []byte, series string) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(doc))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no series %s", series)
}

// engineMetrics derives the engine layer's metrics from scrapes taken
// before and after a window of n requests. The histogram quantiles
// cover the whole process; the memo counters only the window.
func engineMetrics(before, after []byte, n int) (map[string]float64, error) {
	out := map[string]float64{}
	for name, series := range map[string]string{
		"engine.queue_wait_p99_ms": `tradeoffd_engine_queue_wait_duration_seconds{quantile="0.99"}`,
		"engine.eval_p50_ms":       `tradeoffd_engine_eval_duration_seconds{quantile="0.5"}`,
	} {
		v, err := promSample(after, series)
		if err != nil {
			return nil, err
		}
		out[name] = 1e3 * v
	}
	for name, series := range map[string]string{
		"engine.memo_hits_per_req":   "tradeoffd_engine_memo_hits",
		"engine.memo_misses_per_req": "tradeoffd_engine_memo_misses",
	} {
		v0, err := promSample(before, series)
		if err != nil {
			return nil, err
		}
		v1, err := promSample(after, series)
		if err != nil {
			return nil, err
		}
		out[name] = (v1 - v0) / float64(n)
	}
	return out, nil
}

// serviceMetrics derives the service layer's metrics from the replies
// of a window: the response-memo hit ratio, the latency of memo hits
// (the HTTP, middleware and memo floor; 0 with fewer than 20 hits) and
// the mean body size.
func serviceMetrics(w window) map[string]float64 {
	var ok, hits, bodyBytes int
	var hitMS []float64
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		ok++
		bodyBytes += s.bytes
		if s.hit {
			hits++
			hitMS = append(hitMS, s.ms)
		}
	}
	hitP50, err := percentile(hitMS, 0.5)
	if err != nil {
		hitP50 = 0
	}
	return map[string]float64{
		"service.memo_hit_ratio":     float64(hits) / float64(ok),
		"service.hit_latency_p50_us": 1e3 * hitP50,
		"service.body_bytes_per_req": float64(bodyBytes) / float64(ok),
	}
}

// --- /debug/flight ------------------------------------------------------

// flightEvent is the part of a flight-dump event the tally reads.
type flightEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"` // µs
	TID  int     `json:"tid"`
	Args struct {
		Path string `json:"path"`
		Lane int    `json:"lane"` // the recorder's lane: the engine worker slot
	} `json:"args"`
}

// openSpan is a span whose E event has not been read yet.
type openSpan struct {
	name, path string
	ts         float64
	lane       int
	childUS    float64
}

// flightTally counts and times the spans of a flight dump.
type flightTally struct {
	posts, sweeps int                // POST requests; those to /v1/sweep
	count         map[string]int     // spans by name
	totalUS       map[string]float64 // summed durations by name
	selfUS        map[string]float64 // summed self times by name
}

// readFlight tallies a flight dump. A dump re-derives lanes, so spans
// of concurrent requests can share one; a span's children are taken to
// be the spans nested directly inside it that ran on its recorder lane
// under another name. Self time is duration minus those children.
func readFlight(r io.Reader) (flightTally, error) {
	t := flightTally{count: map[string]int{}, totalUS: map[string]float64{}, selfUS: map[string]float64{}}
	dec := json.NewDecoder(r)
	if _, err := dec.Token(); err != nil {
		return t, fmt.Errorf("flight dump: %w", err)
	}
	stacks := map[int][]*openSpan{}
	for dec.More() {
		var ev flightEvent
		if err := dec.Decode(&ev); err != nil {
			return t, fmt.Errorf("flight dump: %w", err)
		}
		st := stacks[ev.TID]
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(st, &openSpan{name: ev.Name, path: ev.Args.Path, ts: ev.TS, lane: ev.Args.Lane})
			continue
		case "E":
		default:
			return t, fmt.Errorf("flight dump: event phase %q", ev.Ph)
		}
		if len(st) == 0 || st[len(st)-1].name != ev.Name {
			return t, fmt.Errorf("flight dump: unbalanced E %q on lane %d", ev.Name, ev.TID)
		}
		sp := st[len(st)-1]
		st = st[:len(st)-1]
		stacks[ev.TID] = st
		dur := ev.TS - sp.ts
		t.count[sp.name]++
		t.totalUS[sp.name] += dur
		t.selfUS[sp.name] += dur - sp.childUS
		if n := len(st); n > 0 && st[n-1].lane == sp.lane && st[n-1].name != sp.name {
			st[n-1].childUS += dur
		}
		if sp.name == "request" && strings.HasPrefix(sp.path, "/v1/") {
			t.posts++
			if sp.path == "/v1/sweep" {
				t.sweeps++
			}
		}
	}
	return t, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (t flightTally) metrics() map[string]float64 {
	points := float64(t.count["sweep_point"])
	jobs := float64(t.count["sim_job"])
	return map[string]float64{
		"sweep.points_per_req": ratio(points, float64(t.sweeps)),
		"sweep.point_self_us":  ratio(t.selfUS["sweep_point"], points),
		"mrc.passes_per_req":   ratio(float64(t.count["mrc_pass"]), float64(t.posts)),
		"simjob.jobs_per_req":  ratio(jobs, float64(t.posts)),
		"simjob.job_ms":        ratio(t.totalUS["sim_job"], 1e3*jobs),
	}
}

// dumpFlight saves the server's flight recorder since start to path
// and tallies it.
func dumpFlight(s *server, c *http.Client, since time.Time, path string) (flightTally, error) {
	last := time.Since(since).Truncate(time.Millisecond) + time.Millisecond
	resp, err := c.Get(s.base + "/debug/flight?last=" + last.String())
	if err != nil {
		return flightTally{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return flightTally{}, fmt.Errorf("GET /debug/flight: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return flightTally{}, err
	}
	t, err := readFlight(io.TeeReader(resp.Body, f))
	if err == nil {
		_, err = io.Copy(f, resp.Body) // the closing bracket
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return t, err
}

// --- layer calls ---------------------------------------------------------

// layerInputs are the layer-call parameters of a stream's first
// payloads.
type layerInputs struct {
	traces    []traceInput
	tradeoffs []tradeoffReq
}

// traceInput is one payload's trace and the stall configuration, cache
// included, it is simulated and replayed under.
type traceInput struct {
	workload string
	seed     uint64
	refs     int
	stall    stall.Config
}

// layerPayloads is how many payloads of the stream parameterize the
// layer calls.
const layerPayloads = 100

func collectLayerInputs(workload string, seed uint64) (layerInputs, error) {
	var in layerInputs
	s, err := newStream(workload, seed, 0)
	if err != nil {
		return in, err
	}
	addSweep := func(cfg sweep.Config) {
		if _, w, ok := sweep.SourceWorkload(cfg.HitSource); ok {
			kb, line := cfg.CacheKB[len(cfg.CacheKB)/2], cfg.LineBytes[len(cfg.LineBytes)/2]
			in.traces = append(in.traces, traceInput{
				workload: w, seed: cfg.Seed, refs: cfg.SimRefs,
				// The sweep's cache under the paper's base system.
				stall: stall.Config{
					Cache:   cache.Config{Size: kb << 10, LineSize: line, Assoc: 2},
					Memory:  memory.Config{BetaM: 10, BusWidth: 4},
					Feature: stall.FS,
				},
			})
		}
	}
	for i := 0; i < layerPayloads; i++ {
		p := s.next()
		route, _, _ := strings.Cut(p.path, "?")
		switch route {
		case "/v1/sweep":
			cfg, err := sweep.ParseConfig(p.body)
			if err != nil {
				return in, err
			}
			addSweep(cfg)
		case "/v1/optimize":
			cfg, err := sweep.ParseOptimizeConfig(p.body)
			if err != nil {
				return in, err
			}
			addSweep(cfg.Config)
		case "/v1/stall":
			g, err := simjob.ParseGrid(p.body)
			if err != nil {
				return in, err
			}
			pt := g.Enumerate()[0]
			f, err := stall.ParseFeature(pt.Feature)
			if err != nil {
				return in, err
			}
			in.traces = append(in.traces, traceInput{
				workload: pt.Program, seed: g.Seed, refs: g.Refs,
				stall: stall.Config{
					Cache:   cache.Config{Size: pt.CacheKB << 10, LineSize: pt.LineBytes, Assoc: g.Assoc},
					Memory:  memory.Config{BetaM: pt.BetaM, BusWidth: pt.BusBytes},
					Feature: f,
				},
			})
		case "/v1/tradeoff":
			var r tradeoffReq
			if err := json.Unmarshal(p.body, &r); err != nil {
				return in, err
			}
			in.tradeoffs = append(in.tradeoffs, r)
		}
	}
	if len(in.tradeoffs) == 0 {
		// Streams without /v1/tradeoff traffic price the catalog's four.
		for _, p := range catalog()[:4] {
			var r tradeoffReq
			if err := json.Unmarshal(p.body, &r); err != nil {
				return in, err
			}
			in.tradeoffs = append(in.tradeoffs, r)
		}
	}
	return in, nil
}

// timed runs fn inside a span named name on ctx's tracer and returns
// its wall time.
func timed(ctx context.Context, name string, fn func() error) (time.Duration, error) {
	_, span := obs.StartSpan(ctx, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	span.End()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// layerClock accumulates one layer's time and work.
type layerClock struct {
	ns, work float64
}

func (c *layerClock) add(d time.Duration, work int) {
	c.ns += float64(d.Nanoseconds())
	c.work += float64(work)
}

func (c layerClock) per() float64 { return ratio(c.ns, c.work) }

// tradeoffReps is how many times one core.FeatureTradeoff call is
// repeated inside its span, so the span lasts long enough to time.
const tradeoffReps = 1000

// tradeoffSink keeps the repeated tradeoff calls observable.
var tradeoffSink float64

// layerMetrics calls each layer's public entry point with the stream's
// parameters, each call in its own span on ctx's tracer, and returns
// the per-unit costs. No server runs these calls: they measure the
// kernels alone.
func layerMetrics(ctx context.Context, in layerInputs) (map[string]float64, error) {
	var gen, access, pass, sampled, curveUS, replay, price, encJSON, encCSV, tradeoff layerClock
	var curveBytes, curves float64
	var stallRows []simjob.PointResult
	priced := map[string]bool{}
	for _, t := range in.traces {
		line := t.stall.Cache.LineSize
		var refs []trace.Ref
		d, err := timed(ctx, "trace_gen", func() error {
			src, err := trace.NewWorkload(t.workload, t.seed)
			if err == nil {
				refs = trace.Collect(src, t.refs)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		gen.add(d, len(refs))

		d, err = timed(ctx, "cache_access", func() error {
			c, err := cache.New(t.stall.Cache)
			if err == nil {
				cache.Measure(c, refs)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		access.add(d, len(refs))

		var curve *mrc.Curve
		d, err = timed(ctx, "mrc_pass", func() (err error) {
			curve, err = mrc.ProfileRefs(refs, line)
			return err
		})
		if err != nil {
			return nil, err
		}
		pass.add(d, len(refs))
		curveBytes += float64(curve.MemoryBytes())
		curves++

		d, err = timed(ctx, "mrc_sampled_pass", func() error {
			_, err := mrc.ProfileSampledRefs(refs, line, mrc.DefaultSampler())
			return err
		})
		if err != nil {
			return nil, err
		}
		sampled.add(d, len(refs))

		d, err = timed(ctx, "model_curve", func() error {
			_, err := model.CurveFor(model.Spec{Workload: t.workload, Seed: t.seed, Refs: t.refs, LineSize: line})
			return err
		})
		if err != nil {
			return nil, err
		}
		curveUS.add(d, 1)

		var res stall.Result
		d, err = timed(ctx, "stall_replay", func() (err error) {
			res, err = stall.Run(t.stall, refs)
			return err
		})
		if err != nil {
			return nil, err
		}
		replay.add(d, len(refs))
		stallRows = append(stallRows, simjob.PointResult{
			Point: simjob.Point{
				Program: t.workload, Feature: t.stall.Feature.String(), CacheKB: t.stall.Cache.Size >> 10,
				LineBytes: line, BusBytes: t.stall.Memory.BusWidth, BetaM: t.stall.Memory.BetaM,
			},
			Source: "replay",
			Result: res,
		})

		// Pricing: the 64-point sweep over curves already cached, so
		// the span holds enumeration, pricing and Pareto marking only.
		key := fmt.Sprintf("%s|%d|%d", t.workload, t.seed, t.refs)
		if priced[key] {
			continue
		}
		priced[key] = true
		cfg := sweep.Config{
			CacheKB: cacheAxis64, LineBytes: lineAxis, BusBits: busAxis,
			LatencyNS: 360, TransferNS: 60, CPUNS: 30,
			HitSource: "mrc:" + t.workload, Seed: t.seed, SimRefs: t.refs,
		}
		caches := sweep.Caches{Curves: mrc.NewCurveCache(0, 0), Models: model.NewCache(0, 0)}
		if _, err := sweep.RunCaches(context.Background(), cfg, 1, caches); err != nil {
			return nil, err
		}
		var ds []sweep.Design
		d, err = timed(ctx, "sweep_price", func() (err error) {
			ds, err = sweep.RunCaches(context.Background(), cfg, 1, caches)
			return err
		})
		if err != nil {
			return nil, err
		}
		price.add(d, len(ds))
		if err := encodeBoth(ctx, &encJSON, &encCSV,
			service.SweepResponse{Count: len(ds), ParetoCount: sweep.ParetoCount(ds), Designs: ds},
			func(w io.Writer) error { return sweep.WriteCSV(w, ds) }); err != nil {
			return nil, err
		}
	}
	if err := encodeBoth(ctx, &encJSON, &encCSV,
		service.StallResponse{Count: len(stallRows), Points: stallRows},
		func(w io.Writer) error { return simjob.WriteCSV(w, stallRows) }); err != nil {
		return nil, err
	}

	for _, r := range in.tradeoffs {
		spec := tradeoffSpec(r)
		d, err := timed(ctx, "core_tradeoff", func() error {
			for i := 0; i < tradeoffReps; i++ {
				tr, err := core.FeatureTradeoff(spec, r.HitRatio, 0.5, r.L, r.D, r.BetaM)
				if err != nil {
					return err
				}
				tradeoffSink += tr.DeltaHR
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		tradeoff.add(d, tradeoffReps)
	}

	return map[string]float64{
		"trace.gen_ns_per_ref":        gen.per(),
		"trace.ref_bytes":             float64(unsafe.Sizeof(trace.Ref{})),
		"cache.access_ns_per_ref":     access.per(),
		"mrc.pass_ns_per_ref":         pass.per(),
		"mrc.sampled_pass_ns_per_ref": sampled.per(),
		"mrc.curve_kb":                ratio(curveBytes, 1024*curves),
		"model.curve_us":              curveUS.per() / 1e3,
		"stall.replay_ns_per_ref":     replay.per(),
		"sweep.price_ns_per_point":    price.per(),
		"core.tradeoff_ns":            tradeoff.per(),
		"encode.json_ns_per_byte":     encJSON.per(),
		"encode.csv_ns_per_byte":      encCSV.per(),
	}, nil
}

// encodeBoth times the JSON and CSV encodings of one response.
func encodeBoth(ctx context.Context, js, cs *layerClock, doc any, writeCSV func(io.Writer) error) error {
	var data []byte
	d, err := timed(ctx, "encode_json", func() (err error) {
		data, err = json.Marshal(doc)
		return err
	})
	if err != nil {
		return err
	}
	js.add(d, len(data))
	var buf bytes.Buffer
	d, err = timed(ctx, "encode_csv", func() error { return writeCSV(&buf) })
	if err != nil {
		return err
	}
	cs.add(d, buf.Len())
	return nil
}

// tradeoffSpec maps a payload's feature onto the core spec, with the
// service's defaults for φ and q.
func tradeoffSpec(r tradeoffReq) core.FeatureSpec {
	switch r.Feature {
	case "bus":
		return core.FeatureSpec{Feature: core.FeatureDoubleBus}
	case "stall":
		return core.FeatureSpec{Feature: core.FeaturePartialStall, Phi: orDefault(r.Phi, 1)}
	case "wbuf":
		return core.FeatureSpec{Feature: core.FeatureWriteBuffers}
	default:
		return core.FeatureSpec{Feature: core.FeaturePipelinedMemory, Q: orDefault(r.Q, 2)}
	}
}

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// healthzRounds is how many GET /healthz round trips time the
// HTTP floor.
const healthzRounds = 200

func healthzP50(ctx context.Context, s *server, c *http.Client) (float64, error) {
	us := make([]float64, 0, healthzRounds)
	for i := 0; i < healthzRounds; i++ {
		d, err := timed(ctx, "healthz", func() error {
			_, err := s.get(c, "/healthz")
			return err
		})
		if err != nil {
			return 0, err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	return percentile(us, 0.5)
}

// tracedMetrics gathers the traced run's per-layer metrics once its
// window (which began at start) has closed: the flight-recorder tally,
// the layer calls and the /healthz floor. It writes the server's
// flight dump and the benchmark's own spans under root/traceDir.
func tracedMetrics(s *server, c *http.Client, root, workload string, seed uint64, start time.Time) (map[string]float64, error) {
	dir := filepath.Join(root, traceDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tally, err := dumpFlight(s, c, start, filepath.Join(dir, workload+"-flight.json"))
	if err != nil {
		return nil, err
	}
	out := tally.metrics()

	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	in, err := collectLayerInputs(workload, seed)
	if err != nil {
		return nil, err
	}
	layers, err := layerMetrics(ctx, in)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		out[k] = v
	}
	p50, err := healthzP50(ctx, s, c)
	if err != nil {
		return nil, err
	}
	out["service.healthz_p50_us"] = p50
	if err := tracer.WriteFile(filepath.Join(dir, workload+"-layers.json")); err != nil {
		return nil, err
	}
	return out, nil
}
