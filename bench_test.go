// Package tradeoff_test holds the repo's one micro-benchmark registry.
// BenchmarkLadder runs the ladder: one named row per layer of the
// evaluation chain, from trace generation through the cache, curve and
// replay kernels, the sweeps and searches built on them, pricing and
// the service, to the observability tier. cmd/benchjson records the
// ladder into BENCH_sweep.json, and TestLadderBaselined keeps that file
// covering every row. BenchmarkExperiments regenerates each paper
// artifact (DESIGN.md §3) end to end. Run:
//
//	go test -run '^$' -bench . -benchmem
package tradeoff_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/experiments"
	"tradeoff/internal/linesize"
	"tradeoff/internal/memory"
	"tradeoff/internal/missratio"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/service"
	"tradeoff/internal/simjob"
	"tradeoff/internal/stall"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// rung is one row of the ladder. setup builds the row's inputs outside
// the timer and returns the op one iteration times. A row whose op
// walks one trace of refs references sets refs, and reports ns/ref
// beside ns/op; rows that walk several traces, or one trace once per
// geometry, report per op only, since their ns/ref would depend on the
// grid's shape.
type rung struct {
	name  string
	refs  int
	setup func(b *testing.B) func() error
}

// ladder is the registry. Row names are the keys of BENCH_sweep.json,
// so renaming a row orphans its baseline entry.
var ladder = []rung{
	// Trace generation: one request's trace, the work of a trace_gen
	// span, for a program blend and for the Zipf generator.
	traceGen("trace_gen_20k", trace.Ear),
	traceGen("trace_gen_zipf_20k", trace.Zipf),

	// Kernels over a collected trace.
	{"cache_access_64k", 1 << 16, func(*testing.B) func() error {
		c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2})
		refs := trace.Collect(trace.MustProgram(trace.Swm256, 1), 1<<16)
		return func() error {
			for _, r := range refs {
				c.Access(r.Addr, r.Write)
			}
			return nil
		}
	}},
	// The work of an mrc_pass span: one exact profile, over a trace
	// with few distinct blocks (ear at 64 B lines: 1,188) and over one
	// with many (doduc at 16 B lines: 10,223, for which a fresh index
	// table doubles four times from its initial 1,024 cells).
	mrcPass("mrc_pass_20k", trace.Ear, 64),
	mrcPass("mrc_pass_doduc16_20k", trace.Doduc, 16),
	// The work of a sim_pass span: the eight cache sizes of the 64-point
	// grid at one line size, 2-way, simulated in one pass.
	{"sim_pass_20k", 20_000, func(*testing.B) func() error {
		refs := trace.Collect(trace.MustWorkload(trace.Ear, 1), 20_000)
		sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
		return func() error {
			rs, err := cache.HitRatios(context.Background(), refs, 32, 2, sizes)
			for _, r := range rs {
				if err == nil {
					err = r.Err
				}
			}
			return err
		}
	}},
	stallReplay("stall_replay_bnl1_100k", trace.Swm256, stall.Config{
		Cache:   cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2},
		Memory:  memory.Config{BetaM: 10, BusWidth: 4},
		Feature: stall.BNL1,
	}),
	stallReplay("stall_replay_wbuf_100k", trace.Hydro2D, stall.Config{
		Cache:            cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2},
		Memory:           memory.Config{BetaM: 10, BusWidth: 4},
		Feature:          stall.BNL3,
		WriteBufferDepth: 4,
	}),
	// The model tier's whole marginal cost: closed-form curves for a
	// program blend, a streaming program and the Zipf generator.
	{"model_curve_200k", 0, func(*testing.B) func() error {
		return func() error {
			for _, w := range []string{trace.Ear, trace.Nasa7, trace.Zipf} {
				if _, err := model.CurveFor(model.Spec{Workload: w, Seed: 1994, Refs: 200_000, LineSize: 32}); err != nil {
					return err
				}
			}
			return nil
		}
	}},

	// Sweeps over the 64-point grid under each hit source. Simulation
	// and the curve sources each pay one pass over the trace per line
	// size (4 here): a sim_pass simulating all eight cache sizes, or an
	// mrc_pass profiling the curve. The analytic source pays no trace
	// pass at all. Each op runs a fresh sweep.Run, whose curve cache is
	// its own, so the profiling cost is inside the measurement. The
	// serial row times the same grid on one worker: the pool's speedup
	// is the ratio.
	sweep64("sweep_sim_64pt", "sim:ear", 0),
	sweep64("sweep_sim_64pt_serial", "sim:ear", 1),
	sweep64("sweep_mrc_64pt", "mrc:ear", 0),
	sweep64("sweep_mrc_sampled_64pt", "mrc~:ear", 0),
	sweep64("sweep_model_64pt", "an:ear", 0),
	// The cost-constrained hierarchy search: 40 design points across
	// three depths on the exact-MRC surface, budget-filtered and
	// Pareto-marked.
	{"optimize_mrc_40pt", 0, func(*testing.B) func() error {
		cfg := sweep.OptimizeConfig{
			Config: sweep.Config{
				CacheKB: []int{4, 8}, LineBytes: []int{16, 32}, BusBits: []int{32, 64},
				LatencyNS: 360, TransferNS: 60, CPUNS: 30,
				SimRefs: 20_000, HitSource: "mrc:ear",
				Levels: []sweep.LevelAxes{
					{CacheKB: []int{32, 64}, LatencyNS: 90},
					{CacheKB: []int{256}, LatencyNS: 180},
				},
			},
			AreaBudget: 2e7,
		}
		return func() error {
			res, err := sweep.Optimize(context.Background(), cfg, 0)
			if err == nil && res.Total != 40 {
				err = fmt.Errorf("total = %d, want 40", res.Total)
			}
			return err
		}
	}},
	// Stall grids: six programs' cache passes and their replays on the
	// pool, the same on one worker, and one program's single cache
	// pass whose replays must still spread over every worker.
	stallGrid("stall_grid", nil, 0),
	stallGrid("stall_grid_serial", nil, 1),
	stallGrid("stall_grid_one_geometry", []string{trace.Nasa7}, 0),

	// Pricing.
	{"tradeoff_eval", 0, func(*testing.B) func() error {
		spec := core.FeatureSpec{Feature: core.FeatureDoubleBus}
		return func() error {
			_, err := core.FeatureTradeoff(spec, 0.95, 0.5, 32, 4, 10)
			return err
		}
	}},
	{"profile_tradeoff", 0, func(*testing.B) func() error {
		spec := core.FeatureSpec{Feature: core.FeatureWriteBuffers}
		w := core.WorkloadProfile{R: 64000, W: 300, Alpha: 0.5, L: 32}
		return func() error {
			_, err := core.ProfileTradeoff(spec, w, 0.95, 4, 10)
			return err
		}
	}},
	{"linesize_eq19", 0, func(*testing.B) func() error {
		m := missratio.DefaultModel()
		cfg := linesize.Config{CacheSize: 16 << 10, BusWidth: 4, LatencyNS: 360, NSPerByte: 15, Lines: []int{8, 16, 32, 64, 128}}
		return func() error {
			_, err := linesize.Eq19Optimal(m, cfg, 2)
			return err
		}
	}},

	// The service: a /v1/tradeoff round trip through the handler that
	// the response memo answers.
	{"request_tradeoff_cached", 0, func(b *testing.B) func() error {
		h := service.New(service.Options{}).Handler()
		body := []byte(`{"feature":"bus","hit_ratio":0.95,"l":32,"d":4,"beta_m":10}`)
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tradeoff", bytes.NewReader(body)))
			return rec
		}
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return func() error {
			if rec := post(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
				return fmt.Errorf("status %d, X-Cache %q: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
			}
			return nil
		}
	}},

	// Observability: the flight recorder's per-span cost, which every
	// completed span pays on the request path, and one metrics-history
	// snapshot cycle at production scale (the runtime collector plus
	// 20 summaries).
	{"span_ring_record", 0, func(*testing.B) func() error {
		r := obs.NewSpanRing(8192)
		rec := obs.SpanRecord{Name: "bench", Start: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), Dur: time.Millisecond, TID: 1}
		return func() error {
			r.Record(rec)
			return nil
		}
	}},
	{"snapshot_tick", 0, func(*testing.B) func() error {
		r := obs.NewRegistry()
		for i := 0; i < 20; i++ {
			hist := new(obs.Histogram)
			hist.Observe(time.Millisecond)
			r.Add(obs.Family{Name: fmt.Sprintf("bench_hist_%d", i), Kind: obs.KindSummary, Collect: obs.CollectHistogram(hist)})
		}
		h := obs.NewHistory(10*time.Second, time.Hour, obs.NewRuntimeRegistry(), r)
		now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
		return func() error {
			now = now.Add(10 * time.Second)
			h.Tick(now)
			return nil
		}
	}},
}

// traceGen is a row generating 20,000-reference traces of workload.
func traceGen(name, workload string) rung {
	return rung{name, 20_000, func(*testing.B) func() error {
		return func() error {
			if refs := trace.Collect(trace.MustWorkload(workload, 1), 20_000); len(refs) != 20_000 {
				return fmt.Errorf("refs = %d, want 20000", len(refs))
			}
			return nil
		}
	}}
}

// mrcPass is a row profiling 20,000 references of workload exactly at
// line-byte lines.
func mrcPass(name, workload string, line int) rung {
	return rung{name, 20_000, func(*testing.B) func() error {
		refs := trace.Collect(trace.MustWorkload(workload, 1), 20_000)
		return func() error {
			c, err := mrc.ProfileRefs(refs, line)
			if err == nil && c.Refs != 20_000 {
				err = fmt.Errorf("refs = %d, want 20000", c.Refs)
			}
			return err
		}
	}}
}

// stallReplay is a row replaying 100,000 references of program under
// cfg: one cache pass and one timing replay.
func stallReplay(name, program string, cfg stall.Config) rung {
	return rung{name, 100_000, func(*testing.B) func() error {
		refs := trace.Collect(trace.MustProgram(program, 1), 100_000)
		return func() error {
			_, err := stall.Run(cfg, refs)
			return err
		}
	}}
}

// sweep64 is a row sweeping the 64-point grid (8 cache sizes × 4 line
// sizes × 2 bus widths) under source on workers workers.
func sweep64(name, source string, workers int) rung {
	cfg := sweep.Config{
		CacheKB:   []int{1, 2, 4, 8, 16, 32, 64, 128},
		LineBytes: []int{16, 32, 64, 128},
		BusBits:   []int{32, 64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: source, SimRefs: 20_000,
	}
	return rung{name, 0, func(*testing.B) func() error {
		return func() error {
			ds, err := sweep.Run(context.Background(), cfg, workers)
			if err == nil && len(ds) != 64 {
				err = fmt.Errorf("designs = %d, want 64", len(ds))
			}
			return err
		}
	}}
}

// stallGrid is a row replaying a 20,000-reference stall grid over
// programs (nil: the six) on workers workers. The runner keeps its
// traces, so after the first op the row times cache passes and
// replays, not generation.
func stallGrid(name string, programs []string, workers int) rung {
	g := simjob.Grid{Programs: programs, Refs: 20_000, Features: []string{"BL", "BNL3"}, BetaM: []int64{2, 8}}
	return rung{name, 0, func(*testing.B) func() error {
		r := simjob.NewRunner()
		return func() error {
			_, err := r.RunGrid(context.Background(), g, workers)
			return err
		}
	}}
}

// BenchmarkLadder runs every ladder row as a sub-benchmark.
func BenchmarkLadder(b *testing.B) {
	for _, r := range ladder {
		b.Run(r.name, func(b *testing.B) {
			op := r.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			if r.refs > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.refs), "ns/ref")
			}
		})
	}
}

// BenchmarkExperiments regenerates each registered experiment, one
// sub-benchmark per paper artifact or extension, at test scale.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arts, err := e.Runner(experiments.Options{Fast: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(arts) == 0 {
					b.Fatal("no artifacts")
				}
			}
		})
	}
}

// TestLadderBaselined pins that the committed baseline records every
// ladder row with a measurement, so `benchjson -compare` diffs each
// one; `make bench-record` rewrites it.
func TestLadderBaselined(t *testing.T) {
	data, err := os.ReadFile("BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []struct {
			Name       string  `json:"name"`
			Iterations int     `json:"iterations"`
			NsPerOp    float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, r := range doc.Benchmarks {
		measured[r.Name] = r.Iterations > 0 && r.NsPerOp > 0
	}
	for _, r := range ladder {
		if !measured[r.name] {
			t.Errorf("BENCH_sweep.json has no measurement of ladder row %s; run `make bench-record`", r.name)
		}
	}
}
