package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// mrcGrid is the 64-point grid (8 cache sizes × 4 line sizes × 2 bus
// widths, no point filtered since every line spans two transfers of
// either bus) shared by the single-pass and accuracy tests — the same
// grid BenchmarkSweepMRC and BenchmarkSweepSim race on.
func mrcGrid(source string) Config {
	return Config{
		CacheKB:    []int{1, 2, 4, 8, 16, 32, 64, 128},
		LineBytes:  []int{16, 32, 64, 128},
		BusBits:    []int{32, 64},
		LatencyNS:  360,
		TransferNS: 60,
		CPUNS:      30,
		HitSource:  source,
		SimRefs:    20000,
	}
}

// traceEvent is one span of a trace export.
type traceEvent struct {
	Name string         `json:"name"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// tracedEvents returns the spans tracer completed, and their count by
// name.
func tracedEvents(t *testing.T, tracer *obs.Tracer) ([]traceEvent, map[string]int) {
	t.Helper()
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Name]++
	}
	return events, counts
}

// within reports whether inner runs inside outer on outer's lane.
func within(inner, outer traceEvent) bool {
	return inner.TID == outer.TID && outer.TS <= inner.TS && inner.TS+inner.Dur <= outer.TS+outer.Dur
}

// TestMRCSweepSinglePass is the acceptance demonstration: a curve-backed
// sweep over a 64-point grid generates its trace once, inside the memo
// flight of the first curve it misses, and pays exactly one pass per
// line size, shown by the spans in the trace export.
func TestMRCSweepSinglePass(t *testing.T) {
	for _, source := range []string{"mrc:ear", "mrc~:ear"} {
		tracer := obs.NewTracer()
		ctx := obs.WithTracer(context.Background(), tracer)
		cfg := mrcGrid(source)
		ds, err := Run(ctx, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 64 {
			t.Fatalf("%s: grid produced %d designs, want 64", source, len(ds))
		}
		events, counts := tracedEvents(t, tracer)
		if want := len(cfg.LineBytes); counts["mrc_pass"] != want {
			t.Errorf("%s: %d mrc_pass spans for %d designs, want exactly %d (one per line size)",
				source, counts["mrc_pass"], len(ds), want)
		}
		if counts["trace_gen"] != 1 {
			t.Fatalf("%s: %d trace_gen spans, want 1 for the whole sweep", source, counts["trace_gen"])
		}
		for _, gen := range events {
			if gen.Name != "trace_gen" {
				continue
			}
			if gen.Args["workload"] != "ear" || gen.Args["refs"] != float64(cfg.SimRefs) {
				t.Errorf("%s: trace_gen args %v, want workload ear and refs %d", source, gen.Args, cfg.SimRefs)
			}
			nested := false
			for _, memo := range events {
				nested = nested || memo.Name == "memo" && within(gen, memo)
			}
			if !nested {
				t.Errorf("%s: trace_gen span is not inside a memo span", source)
			}
		}
	}
}

// TestMRCSweepMatchesSimWithinEpsilon compares the MRC-backed sweep's
// hit ratios against the re-simulation sweep on the same grid. Both
// use assoc 2 (the default), so the MRC side goes through Smith's
// correction; the bound mirrors the mrc package's tolerance harness.
func TestMRCSweepMatchesSimWithinEpsilon(t *testing.T) {
	const eps = 0.20
	mrcDs, err := Run(context.Background(), mrcGrid("mrc:ear"), 0)
	if err != nil {
		t.Fatal(err)
	}
	simDs, err := Run(context.Background(), mrcGrid("sim:ear"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mrcDs) != len(simDs) {
		t.Fatalf("mrc sweep has %d designs, sim sweep %d", len(mrcDs), len(simDs))
	}
	for i := range mrcDs {
		m, s := mrcDs[i], simDs[i]
		if m.CacheKB != s.CacheKB || m.LineBytes != s.LineBytes || m.BusBits != s.BusBits {
			t.Fatalf("design %d mismatch: %+v vs %+v", i, m, s)
		}
		if d := math.Abs(m.HitRatio - s.HitRatio); d > eps {
			t.Errorf("cache=%dKB line=%d: mrc hit ratio %v, sim %v (diff %g > %g)",
				m.CacheKB, m.LineBytes, m.HitRatio, s.HitRatio, d, eps)
		}
	}
}

// TestMRCSampledSweepRuns exercises the "mrc~:" source end to end and
// checks it against the exact MRC sweep.
func TestMRCSampledSweepRuns(t *testing.T) {
	exact, err := Run(context.Background(), mrcGrid("mrc:ear"), 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(context.Background(), mrcGrid("mrc~:ear"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) != len(exact) {
		t.Fatalf("sampled sweep has %d designs, exact %d", len(sampled), len(exact))
	}
	for i := range sampled {
		if d := math.Abs(sampled[i].HitRatio - exact[i].HitRatio); d > 0.10 {
			t.Errorf("cache=%dKB line=%d: sampled %v, exact %v (diff %g)",
				sampled[i].CacheKB, sampled[i].LineBytes, sampled[i].HitRatio, exact[i].HitRatio, d)
		}
	}
}

// TestRunCurvesSharesCache proves curves survive across sweeps when
// the caller owns the cache: a sweep over resident curves generates no
// trace and performs no pass, and one with a single resident curve
// generates the trace once for the three it profiles.
func TestRunCurvesSharesCache(t *testing.T) {
	curves := mrc.NewCurveCache(0, 0)
	if _, err := RunCaches(context.Background(), mrcGrid("mrc:ear"), 0, Caches{Curves: curves}); err != nil {
		t.Fatal(err)
	}
	n := curves.Len()
	if n != 4 {
		t.Fatalf("first sweep cached %d curves, want 4 (one per line size)", n)
	}
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	if _, err := RunCaches(ctx, mrcGrid("mrc:ear"), 0, Caches{Curves: curves}); err != nil {
		t.Fatal(err)
	}
	if _, counts := tracedEvents(t, tracer); counts["trace_gen"] != 0 || counts["mrc_pass"] != 0 {
		t.Fatalf("sweep over a shared curve cache opened %d trace_gen and %d mrc_pass spans, want none",
			counts["trace_gen"], counts["mrc_pass"])
	}

	curves = mrc.NewCurveCache(0, 0)
	one := mrcGrid("mrc:ear")
	one.LineBytes = []int{32}
	if _, err := RunCaches(context.Background(), one, 0, Caches{Curves: curves}); err != nil {
		t.Fatal(err)
	}
	tracer = obs.NewTracer()
	ctx = obs.WithTracer(context.Background(), tracer)
	if _, err := RunCaches(ctx, mrcGrid("mrc:ear"), 2, Caches{Curves: curves}); err != nil {
		t.Fatal(err)
	}
	if _, counts := tracedEvents(t, tracer); counts["trace_gen"] != 1 || counts["mrc_pass"] != 3 {
		t.Fatalf("sweep with 1 of 4 curves resident opened %d trace_gen and %d mrc_pass spans, want 1 and 3",
			counts["trace_gen"], counts["mrc_pass"])
	}
}

// TestMRCZipfWorkload covers the zipf workload name through the mrc
// source, and the sim:zipf path through trace.NewWorkload.
func TestMRCZipfWorkload(t *testing.T) {
	cfg := mrcGrid("mrc:" + trace.Zipf)
	cfg.CacheKB = []int{4, 16}
	cfg.LineBytes = []int{32}
	cfg.BusBits = []int{32}
	ds, err := Run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("got %d designs, want 2", len(ds))
	}
	if ds[0].HitRatio <= 0 || ds[0].HitRatio >= 1 {
		t.Fatalf("zipf hit ratio %v outside (0, 1)", ds[0].HitRatio)
	}
	if ds[1].HitRatio < ds[0].HitRatio {
		t.Fatalf("hit ratio fell with cache size: %v then %v", ds[0].HitRatio, ds[1].HitRatio)
	}
}

// TestValidateMRCSources pins the new hit_source grammar and sampler
// domain checks.
func TestValidateMRCSources(t *testing.T) {
	for _, src := range []string{"mrc:ear", "mrc~:ear", "mrc:zipf", "mrc~:nasa7"} {
		cfg := mrcGrid(src)
		cfg.SetDefaults()
		if err := cfg.Validate(); err != nil {
			t.Errorf("hit_source %q rejected: %v", src, err)
		}
	}
	bad := mrcGrid("mrc~:ear")
	bad.MRCRate = 1.5
	bad.SetDefaults()
	if err := bad.Validate(); err == nil {
		t.Error("mrc_rate 1.5 accepted")
	}
	bad = mrcGrid("mrc~:ear")
	bad.MRCBudget = -1
	bad.SetDefaults()
	if err := bad.Validate(); err == nil {
		t.Error("mrc_budget -1 accepted")
	}
	// Validate rejects an unknown workload before any evaluation.
	unknown := mrcGrid("mrc:mystery")
	unknown.SetDefaults()
	if err := unknown.Validate(); err == nil {
		t.Error("hit_source mrc:mystery accepted")
	}
	if _, err := Run(context.Background(), mrcGrid("mrc:mystery"), 0); err == nil {
		t.Error("mrc:mystery sweep succeeded")
	}
}
