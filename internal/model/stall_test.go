package model

import (
	"context"
	"math"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

// stallCycleBudget is the committed per-workload budget on the
// relative Cycles error of EstimateStall vs the trace replay, over
// the TestEstimateStall grid (8/32 KiB, βm 4/10, every feature).
// Cycles inherit the hit-ratio tier's miss-count error amplified by
// the stall share, so the budgets track each workload's hit-ratio
// epsilon (xval.go errorBudget): measured worst cases at seed 1994 /
// 30k refs were nasa7 0.24, swm256 0.37, wave5 0.20, ear 0.64,
// doduc 0.17, hydro2d 0.25, zipf 0.72.
var stallCycleBudget = map[string]float64{
	trace.Nasa7:   0.32,
	trace.Swm256:  0.45,
	trace.Wave5:   0.28,
	trace.Ear:     0.75,
	trace.Doduc:   0.25,
	trace.Hydro2D: 0.33,
	trace.Zipf:    0.85,
}

// epsStallPhi bounds |PhiFraction_model − PhiFraction_replay| across
// the whole grid (measured worst 0.159, ear BNL3 at βm=10).
const epsStallPhi = 0.20

// TestEstimateStall pins the analytic stall tier against the replay
// engine over a small feature × geometry grid: φ (normalized to its
// L/D ceiling) must track within epsStallPhi absolute, total Cycles
// within each workload's committed relative budget, and the FS/BL φ
// identities must be near-exact — FS stalls the whole lineTime, so
// its PhiFraction is 1 by construction in both tiers.
func TestEstimateStall(t *testing.T) {
	const refs = 30_000
	const seed = 1994
	sizesKB := []int{8, 32}
	betas := []int64{4, 10}
	if testing.Short() {
		sizesKB = []int{8}
		betas = []int64{4}
	}
	for _, w := range trace.Workloads() {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			src, err := trace.NewWorkload(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Collect(src, refs)
			for _, kb := range sizesKB {
				for _, f := range stall.Features() {
					for _, betaM := range betas {
						cfg := stall.Config{
							Cache:   cache.Config{Size: kb << 10, LineSize: 32, Assoc: 2, Replacement: cache.LRU},
							Memory:  memory.Config{BetaM: betaM, BusWidth: 4},
							Feature: f,
						}
						got, err := EstimateStall(context.Background(), w, seed, refs, cfg, nil)
						if err != nil {
							t.Fatal(err)
						}
						want, err := stall.Run(cfg, tr)
						if err != nil {
							t.Fatal(err)
						}
						cycErr := math.Abs(float64(got.Cycles-want.Cycles)) / float64(want.Cycles)
						if budget := stallCycleBudget[w]; cycErr > budget {
							t.Errorf("%s %dKB βm=%d: Cycles %d vs replay %d (rel err %.3f > budget %.2f)",
								f, kb, betaM, got.Cycles, want.Cycles, cycErr, budget)
						}
						phiErr := math.Abs(got.PhiFraction - want.PhiFraction)
						if phiErr > epsStallPhi {
							t.Errorf("%s %dKB βm=%d: PhiFraction %.3f vs replay %.3f (|Δ| %.3f > %.2f)",
								f, kb, betaM, got.PhiFraction, want.PhiFraction, phiErr, epsStallPhi)
						}
						if f == stall.FS && math.Abs(got.PhiFraction-1) > 1e-3 {
							t.Errorf("FS %dKB βm=%d: PhiFraction = %.6f, want 1 (to rounding)", kb, betaM, got.PhiFraction)
						}
					}
				}
			}
		})
	}
}

// TestEstimateStallShape pins structural properties that hold for
// every workload regardless of calibration: base cycles track ḡ·n,
// write-around adds WriteStall and sheds fills, and a write buffer
// moves flush cycles from FlushStall to HiddenFlush verbatim.
func TestEstimateStallShape(t *testing.T) {
	const refs, seed = 50_000, 7
	base := stall.Config{
		Cache:   cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, Replacement: cache.LRU},
		Memory:  memory.Config{BetaM: 4, BusWidth: 4},
		Feature: stall.BL,
	}
	ctx := context.Background()
	alloc, err := EstimateStall(ctx, trace.Ear, seed, refs, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.WriteStall != 0 {
		t.Errorf("allocate: WriteStall = %d, want 0", alloc.WriteStall)
	}
	if alloc.FlushStall <= 0 {
		t.Errorf("allocate: FlushStall = %d, want > 0 (ear writes)", alloc.FlushStall)
	}
	if alloc.HiddenFlush != 0 {
		t.Errorf("allocate: HiddenFlush = %d, want 0 without a write buffer", alloc.HiddenFlush)
	}

	around := base
	around.Cache.WriteMiss = cache.WriteAround
	ar, err := EstimateStall(ctx, trace.Ear, seed, refs, around, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ar.WriteStall <= 0 {
		t.Errorf("around: WriteStall = %d, want > 0", ar.WriteStall)
	}
	if ar.Misses >= alloc.Misses {
		t.Errorf("around: fills %d, want fewer than allocate's %d", ar.Misses, alloc.Misses)
	}

	buffered := base
	buffered.WriteBufferDepth = 4
	bf, err := EstimateStall(ctx, trace.Ear, seed, refs, buffered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bf.FlushStall != 0 || bf.HiddenFlush != alloc.FlushStall {
		t.Errorf("wbuf: FlushStall %d / HiddenFlush %d, want 0 / %d",
			bf.FlushStall, bf.HiddenFlush, alloc.FlushStall)
	}

	if _, err := EstimateStall(ctx, "gcc", 1, 1000, base, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestEstimateStallAdmitsReplayDomain pins that the analytic tier
// admits exactly the configurations a replay admits: every cache or
// memory configuration stall.Run rejects, EstimateStall rejects with
// the identical error, before any curve is built — so a bus width of
// 0 is an error, not an integer division by zero, and βm < 1 is an
// error, not a negative cycle count.
func TestEstimateStallAdmitsReplayDomain(t *testing.T) {
	valid := stall.Config{
		Cache:   cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, Replacement: cache.LRU},
		Memory:  memory.Config{BetaM: 10, BusWidth: 4},
		Feature: stall.NB,
	}
	src, err := trace.NewWorkload(trace.Ear, 1994)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Collect(src, 2000)
	for name, mutate := range map[string]func(*stall.Config){
		"bus width 0":      func(c *stall.Config) { c.Memory.BusWidth = 0 },
		"bus width 3":      func(c *stall.Config) { c.Memory.BusWidth = 3 },
		"bus width 64":     func(c *stall.Config) { c.Memory.BusWidth, c.Cache.LineSize = 64, 64 },
		"βm 0":             func(c *stall.Config) { c.Memory.BetaM = 0 },
		"βm -5":            func(c *stall.Config) { c.Memory.BetaM = -5 },
		"pipelined q 0":    func(c *stall.Config) { c.Memory.Pipelined = true },
		"assoc 3":          func(c *stall.Config) { c.Cache.Assoc = 3 },
		"assoc -1":         func(c *stall.Config) { c.Cache.Assoc = -1 },
		"24 KiB cache":     func(c *stall.Config) { c.Cache.Size = 24 << 10 },
		"line 48":          func(c *stall.Config) { c.Cache.LineSize = 48 },
		"line above cache": func(c *stall.Config) { c.Cache.Size, c.Cache.LineSize = 32, 64 },
	} {
		cfg := valid
		mutate(&cfg)
		_, want := stall.Run(cfg, tr)
		if want == nil {
			t.Fatalf("%s: the replay accepted the configuration", name)
		}
		_, got := EstimateStall(context.Background(), trace.Ear, 1994, 2000, cfg, nil)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: EstimateStall error %v, want the replay's %q", name, got, want)
		}
	}
	if _, err := EstimateStall(context.Background(), trace.Ear, 1994, 2000, valid, nil); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}
