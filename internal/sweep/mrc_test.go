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

// TestMRCSweepSinglePass is the acceptance demonstration: an
// MRC-backed sweep over a 64-point grid pays exactly one trace pass
// per line size, shown by counting mrc_pass spans in the trace export.
func TestMRCSweepSinglePass(t *testing.T) {
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	cfg := mrcGrid("mrc:ear")
	ds, err := Run(ctx, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 64 {
		t.Fatalf("grid produced %d designs, want 64", len(ds))
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, ev := range events {
		if ev.Name == "mrc_pass" {
			passes++
		}
	}
	if want := len(cfg.LineBytes); passes != want {
		t.Fatalf("%d mrc_pass spans for %d designs, want exactly %d (one per line size)",
			passes, len(ds), want)
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
// the caller owns the cache: the second sweep performs zero passes.
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
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("mrc_pass")) {
		t.Fatal("second sweep over a shared curve cache re-profiled a trace")
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
	// An unknown workload surfaces at evaluation, like sim:'s behavior.
	if _, err := Run(context.Background(), mrcGrid("mrc:mystery"), 0); err == nil {
		t.Error("mrc:mystery sweep succeeded")
	}
}
