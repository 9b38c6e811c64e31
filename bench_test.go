// Package tradeoff_test is the benchmark harness of the reproduction:
// one testing.B per paper artifact (DESIGN.md §3, E1–E12) regenerating
// that table or figure end to end, plus micro-benchmarks for the
// simulation substrate. Run:
//
//	go test -bench=. -benchmem
package tradeoff_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/experiments"
	"tradeoff/internal/linesize"
	"tradeoff/internal/memory"
	"tradeoff/internal/missratio"
	"tradeoff/internal/service"
	"tradeoff/internal/stall"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	opts := experiments.Options{Fast: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arts, err := experiments.Run(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(arts) == 0 {
			b.Fatal("no artifacts")
		}
	}
}

// E1–E12: one bench per paper artifact.

func BenchmarkTable2StallBounds(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable3FeatureRatios(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFigure1StallFactors(b *testing.B)       { benchExperiment(b, "figure1") }
func BenchmarkFigure2BusWidth(b *testing.B)           { benchExperiment(b, "figure2") }
func BenchmarkFigure3Unified(b *testing.B)            { benchExperiment(b, "figure3") }
func BenchmarkFigure4Unified(b *testing.B)            { benchExperiment(b, "figure4") }
func BenchmarkFigure5BNL3(b *testing.B)               { benchExperiment(b, "figure5") }
func BenchmarkFigure6SmithValidation(b *testing.B)    { benchExperiment(b, "figure6") }
func BenchmarkExample1CacheSizeBusWidth(b *testing.B) { benchExperiment(b, "example1") }
func BenchmarkFeatureRanking(b *testing.B)            { benchExperiment(b, "ranking") }
func BenchmarkPipelineCrossover(b *testing.B)         { benchExperiment(b, "crossover") }
func BenchmarkBusWidthLimits(b *testing.B)            { benchExperiment(b, "limits") }

// Substrate micro-benchmarks.

func BenchmarkTraceGeneration(b *testing.B) {
	src := trace.MustProgram(trace.Nasa7, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("trace ended")
		}
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2})
	refs := trace.Collect(trace.MustProgram(trace.Swm256, 1), 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[i&(1<<16-1)]
		c.Access(r.Addr, r.Write)
	}
}

func BenchmarkStallReplayBNL1(b *testing.B) {
	refs := trace.Collect(trace.MustProgram(trace.Swm256, 1), 100_000)
	cfg := stall.Config{
		Cache:   cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2},
		Memory:  memory.Config{BetaM: 10, BusWidth: 4},
		Feature: stall.BNL1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stall.Run(cfg, refs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(refs)), "refs/op")
}

func BenchmarkStallReplayWithWriteBuffer(b *testing.B) {
	refs := trace.Collect(trace.MustProgram(trace.Hydro2D, 1), 100_000)
	cfg := stall.Config{
		Cache:            cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2},
		Memory:           memory.Config{BetaM: 10, BusWidth: 4},
		Feature:          stall.BNL3,
		WriteBufferDepth: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stall.Run(cfg, refs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTradeoffEvaluation(b *testing.B) {
	spec := core.FeatureSpec{Feature: core.FeatureDoubleBus}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FeatureTradeoff(spec, 0.95, 0.5, 32, 4, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineSizeSelection(b *testing.B) {
	m := missratio.DefaultModel()
	cfg := linesize.Config{CacheSize: 16 << 10, BusWidth: 4, LatencyNS: 360, NSPerByte: 15, Lines: []int{8, 16, 32, 64, 128}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linesize.Eq19Optimal(m, cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// E13–E19: extension and ablation benches.

func BenchmarkAblationAlpha(b *testing.B)     { benchExperiment(b, "ablation_alpha") }
func BenchmarkAblationQ(b *testing.B)         { benchExperiment(b, "ablation_q") }
func BenchmarkAblationFillOrder(b *testing.B) { benchExperiment(b, "ablation_fillorder") }
func BenchmarkWriteBufferDepth(b *testing.B)  { benchExperiment(b, "wbuf_depth") }
func BenchmarkPipelinedSim(b *testing.B)      { benchExperiment(b, "pipelined_sim") }
func BenchmarkMultiIssue(b *testing.B)        { benchExperiment(b, "multiissue") }
func BenchmarkWriteAround(b *testing.B)       { benchExperiment(b, "writearound") }

func BenchmarkZipfGeneration(b *testing.B) {
	src := trace.ZipfReuse(trace.ZipfReuseConfig{Seed: 1, Lines: 65536, Theta: 1.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("trace ended")
		}
	}
}

func BenchmarkProfileTradeoff(b *testing.B) {
	w := core.WorkloadProfile{R: 64000, W: 300, Alpha: 0.5, L: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProfileTradeoff(core.FeatureSpec{Feature: core.FeatureWriteBuffers}, w, 0.95, 4, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPinArea(b *testing.B) { benchExperiment(b, "pinarea") }

func BenchmarkTraffic(b *testing.B) { benchExperiment(b, "traffic") }

func BenchmarkSplitCache(b *testing.B) { benchExperiment(b, "splitcache") }

func BenchmarkAssociativity(b *testing.B) { benchExperiment(b, "associativity") }

func BenchmarkPrefetch(b *testing.B) { benchExperiment(b, "prefetch") }

func BenchmarkContention(b *testing.B) { benchExperiment(b, "contention") }

func BenchmarkTwoLevel(b *testing.B) { benchExperiment(b, "twolevel") }

func BenchmarkSector(b *testing.B) { benchExperiment(b, "sector") }

func BenchmarkEndToEnd(b *testing.B) { benchExperiment(b, "endtoend") }

func BenchmarkSeeds(b *testing.B) { benchExperiment(b, "seeds") }

func BenchmarkTable1Parameters(b *testing.B) { benchExperiment(b, "table1") }

// Sweep-engine and service benchmarks: the serial-vs-parallel pair
// measures the worker pool's speedup on a simulation-backed space
// (8 points × 20k simulated references each), and the handler bench
// measures a memoized /v1/tradeoff round trip.

func benchSweepEngine(b *testing.B, workers int) {
	cfg := sweep.Config{
		CacheKB: []int{4, 8, 16, 32}, LineBytes: []int{16, 32}, BusBits: []int{32},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: "sim:zipf", SimRefs: 20_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := sweep.Run(context.Background(), cfg, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != 8 {
			b.Fatalf("designs = %d, want 8", len(ds))
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweepEngine(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweepEngine(b, 0) }

// benchSweep64 sweeps the 64-point grid (8 cache sizes × 4 line sizes
// × 2 bus widths) under the given hit source. The Sim/MRC pair measures
// the tentpole claim of internal/mrc: re-simulation replays one trace
// through a cache per (cache size, line size) geometry (32 here, since
// bus width leaves the hit ratio unchanged), the miss-ratio-curve
// sources pay one pass per line size (4 here) and answer the remaining
// 60 points from the curves.
// The analytic source ("an:ear") pays no trace passes at all — every
// point is priced from internal/model's closed forms.
// Each iteration uses a fresh curve cache (sweep.Run owns one per
// call), so the profiling cost is inside the measurement.
func benchSweep64(b *testing.B, source string) {
	cfg := sweep.Config{
		CacheKB:   []int{1, 2, 4, 8, 16, 32, 64, 128},
		LineBytes: []int{16, 32, 64, 128},
		BusBits:   []int{32, 64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: source, SimRefs: 20_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := sweep.Run(context.Background(), cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != 64 {
			b.Fatalf("designs = %d, want 64", len(ds))
		}
	}
}

func BenchmarkSweepSim(b *testing.B)        { benchSweep64(b, "sim:ear") }
func BenchmarkSweepMRC(b *testing.B)        { benchSweep64(b, "mrc:ear") }
func BenchmarkSweepMRCSampled(b *testing.B) { benchSweep64(b, "mrc~:ear") }
func BenchmarkSweepModel(b *testing.B)      { benchSweep64(b, "an:ear") }

func BenchmarkTradeoffHandlerCached(b *testing.B) {
	s := service.New(service.Options{})
	h := s.Handler()
	body := []byte(`{"feature":"bus","hit_ratio":0.95,"l":32,"d":4,"beta_m":10}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/tradeoff", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	if b.N > 1 && s.CacheHits() == 0 {
		b.Fatal("repeated identical requests never hit the LRU")
	}
}
