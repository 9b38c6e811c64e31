package tradeoff_test

import (
	"math"
	"testing"

	"tradeoff"
)

func dp95() tradeoff.DesignPoint {
	return tradeoff.DesignPoint{HitRatio: 0.95, Alpha: 0.5, L: 32, D: 4, BetaM: 10}
}

func TestPriceMatchesPaperHeadline(t *testing.T) {
	// L = 2D at the design limit: HR → 2.5·HR − 1.5.
	tr, err := tradeoff.Price(tradeoff.Spec{Feature: tradeoff.DoubleBus},
		tradeoff.DesignPoint{HitRatio: 0.95, Alpha: 0.5, L: 8, D: 4, BetaM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.NewHR-0.875) > 1e-12 {
		t.Fatalf("NewHR = %v, want 0.875", tr.NewHR)
	}
}

func TestPriceAllFeatures(t *testing.T) {
	specs := []tradeoff.Spec{
		{Feature: tradeoff.DoubleBus},
		{Feature: tradeoff.PartialStall, Phi: 7},
		{Feature: tradeoff.WriteBuffers},
		{Feature: tradeoff.PipelinedMemory, Q: 2},
	}
	for _, s := range specs {
		tr, err := tradeoff.Price(s, dp95())
		if err != nil {
			t.Fatalf("%v: %v", s.Feature, err)
		}
		if tr.DeltaHR <= 0 || !tr.Valid {
			t.Fatalf("%v: tradeoff %+v", s.Feature, tr)
		}
	}
}

func TestPriceRejectsBadDesignPoint(t *testing.T) {
	if _, err := tradeoff.Price(tradeoff.Spec{Feature: tradeoff.DoubleBus},
		tradeoff.DesignPoint{HitRatio: 1.5, Alpha: 0.5, L: 32, D: 4, BetaM: 10}); err == nil {
		t.Fatal("hit ratio above 1 accepted")
	}
}

func TestPriceAtIssueOneMatchesPrice(t *testing.T) {
	spec := tradeoff.Spec{Feature: tradeoff.WriteBuffers}
	a, err := tradeoff.Price(spec, dp95())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tradeoff.PriceAt(spec, dp95(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeltaHR != b.DeltaHR {
		t.Fatalf("PriceAt(1) %v != Price %v", b.DeltaHR, a.DeltaHR)
	}
}

func TestRankOrdering(t *testing.T) {
	ranked, err := tradeoff.Rank(dp95(), 7.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 4 {
		t.Fatalf("ranked %d features, want 4", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].DeltaHR > ranked[i-1].DeltaHR {
			t.Fatal("ranking not descending")
		}
	}
}

func TestPipelineCrossoverPublic(t *testing.T) {
	x, err := tradeoff.PipelineCrossover(2, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-14.0/3) > 1e-12 {
		t.Fatalf("crossover %v, want 14/3", x)
	}
	if got := tradeoff.BetaP(10, 2, 32, 4); got != 24 {
		t.Fatalf("BetaP = %v, want 24", got)
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := tradeoff.Workloads()
	if len(ws) != 7 {
		t.Fatalf("%d workloads, want 7", len(ws))
	}
	if ws[len(ws)-1] != tradeoff.ZipfGeneral {
		t.Fatal("zipf workload missing")
	}
}

func TestMeasureWorkload(t *testing.T) {
	cs := tradeoff.CacheSpec{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteBack: true, Allocate: true}
	p, err := tradeoff.MeasureWorkload(tradeoff.Swm256, 1, 50000, cs)
	if err != nil {
		t.Fatal(err)
	}
	if p.HitRatio <= 0.5 || p.HitRatio >= 1 {
		t.Fatalf("hit ratio %v implausible", p.HitRatio)
	}
	if p.W != 0 {
		t.Fatalf("write-allocate W = %d, want 0", p.W)
	}
	// Zipf lands on the Short & Levy curve at 8K (≈0.91 before warm-up).
	z, err := tradeoff.MeasureWorkload(tradeoff.ZipfGeneral, 1, 200000, cs)
	if err != nil {
		t.Fatal(err)
	}
	if z.HitRatio < 0.88 || z.HitRatio > 0.94 {
		t.Fatalf("zipf 8K hit ratio %.3f, want ≈0.91", z.HitRatio)
	}
}

func TestMeasureWorkloadErrors(t *testing.T) {
	good := tradeoff.CacheSpec{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteBack: true, Allocate: true}
	if _, err := tradeoff.MeasureWorkload("gcc", 1, 100, good); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad := good
	bad.Size = 999
	if _, err := tradeoff.MeasureWorkload(tradeoff.Ear, 1, 100, bad); err == nil {
		t.Fatal("invalid cache accepted")
	}
}

func TestSimulatePhiFeedsPrice(t *testing.T) {
	cs := tradeoff.CacheSpec{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteBack: true, Allocate: true}
	phi, err := tradeoff.SimulatePhi(tradeoff.Nasa7, 1, 50000, cs, tradeoff.BNL1, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if phi.Phi < 1 || phi.Phi > 8 {
		t.Fatalf("BNL1 φ = %v outside Table 2 bounds", phi.Phi)
	}
	tr, err := tradeoff.Price(tradeoff.Spec{Feature: tradeoff.PartialStall, Phi: phi.Phi}, dp95())
	if err != nil {
		t.Fatal(err)
	}
	if tr.DeltaHR < 0 {
		t.Fatalf("measured-φ tradeoff negative: %+v", tr)
	}
}

func TestSimulatePhiErrors(t *testing.T) {
	cs := tradeoff.CacheSpec{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteBack: true, Allocate: true}
	if _, err := tradeoff.SimulatePhi("gcc", 1, 100, cs, tradeoff.FS, 10, 4); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := tradeoff.SimulatePhi(tradeoff.Ear, 1, 100, cs, tradeoff.FS, 10, 5); err == nil {
		t.Fatal("invalid bus width accepted")
	}
}

func TestCacheSpecPolicies(t *testing.T) {
	// Write-around must report W > 0 on a write-heavy workload.
	cs := tradeoff.CacheSpec{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteBack: true, Allocate: false}
	p, err := tradeoff.MeasureWorkload(tradeoff.Doduc, 1, 50000, cs)
	if err != nil {
		t.Fatal(err)
	}
	if p.W == 0 {
		t.Fatal("write-around measured no bypassed writes")
	}
}

func TestPriceL2Public(t *testing.T) {
	w, err := tradeoff.PriceL2(0.90, 0.80, 5, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Achievable || w.DeltaHR <= 0 {
		t.Fatalf("L2 worth %+v", w)
	}
	if _, err := tradeoff.PriceL2(0.90, 0.80, 0.5, 80); err == nil {
		t.Fatal("bad tL2 accepted")
	}
}

func TestOptimalLineSizePublic(t *testing.T) {
	// Figure 6(a): 16K, D=4, 360ns + 15ns/byte → 32-byte lines.
	got, err := tradeoff.OptimalLineSize(tradeoff.LineSizeConfig{
		CacheSize: 16 << 10, BusWidth: 4, LatencyNS: 360, NSPerByte: 15,
		Lines: []int{8, 16, 32, 64, 128},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("optimal line %d, want 32", got)
	}
	if _, err := tradeoff.OptimalLineSize(tradeoff.LineSizeConfig{}, 2); err == nil {
		t.Fatal("empty config accepted")
	}
	// A latency that overflows every candidate's objective to +Inf must
	// be an error, not line 0, which was never a candidate.
	if l, err := tradeoff.OptimalLineSize(tradeoff.LineSizeConfig{
		CacheSize: 8 << 10, BusWidth: 8, LatencyNS: 1e308, NSPerByte: 1e-300,
		Lines: []int{16, 32, 64},
	}, 2); err == nil {
		t.Fatalf("overflowing config: optimal line %d, <nil>; want an error", l)
	}
}
