package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfDefaults(t *testing.T) {
	src := ZipfReuse(ZipfReuseConfig{Seed: 1})
	refs := Collect(src, 1000)
	if len(refs) != 1000 {
		t.Fatalf("got %d refs", len(refs))
	}
	for i, r := range refs {
		if r.Size != 4 || r.Addr%4 != 0 {
			t.Fatalf("ref %d: size %d addr %#x, want 4-byte aligned word", i, r.Size, r.Addr)
		}
	}
}

func TestZipfStaysInRegion(t *testing.T) {
	cfg := ZipfReuseConfig{Seed: 3, Base: 0x4000_0000, Lines: 1024, LineBytes: 32}
	refs := Collect(ZipfReuse(cfg), 20000)
	hi := cfg.Base + uint64(cfg.Lines*cfg.LineBytes)
	for i, r := range refs {
		if r.Addr < cfg.Base || r.Addr >= hi {
			t.Fatalf("ref %d addr %#x outside region [%#x, %#x)", i, r.Addr, cfg.Base, hi)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	a := Collect(ZipfReuse(ZipfReuseConfig{Seed: 9}), 2000)
	b := Collect(ZipfReuse(ZipfReuseConfig{Seed: 9}), 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

func TestZipfSkewControlsLocality(t *testing.T) {
	// Higher θ concentrates references on fewer lines.
	distinct := func(theta float64) int {
		refs := Collect(ZipfReuse(ZipfReuseConfig{Seed: 4, Lines: 32768, Theta: theta}), 30000)
		seen := map[uint64]bool{}
		for _, r := range refs {
			seen[r.Line(32)] = true
		}
		return len(seen)
	}
	lo, hi := distinct(1.5), distinct(0.8)
	if lo >= hi {
		t.Fatalf("θ=1.5 touched %d lines, θ=0.8 touched %d; want fewer for higher skew", lo, hi)
	}
}

func TestZipfInstrMonotonic(t *testing.T) {
	refs := Collect(ZipfReuse(ZipfReuseConfig{Seed: 5}), 5000)
	for i := 1; i < len(refs); i++ {
		if refs[i].Instr <= refs[i-1].Instr {
			t.Fatalf("instr not increasing at %d", i)
		}
	}
}

func TestZipfThetaOneBranch(t *testing.T) {
	// θ exactly 1 exercises the logarithmic CDF branch.
	refs := Collect(ZipfReuse(ZipfReuseConfig{Seed: 6, Lines: 4096, Theta: 1.0}), 10000)
	if len(refs) != 10000 {
		t.Fatal("θ=1 generator truncated")
	}
}

// TestZipfRankBoundsQuick draws ranks from generators of random size,
// skew and seed, and checks each against the bounds and against the
// inverse CDF evaluated from scratch at the same draw, so the
// constants a generator precomputes are checked at many points.
func TestZipfRankBoundsQuick(t *testing.T) {
	thetas := []float64{0.5, 0.9, 1, 1.5}
	f := func(nRaw uint16, thetaRaw uint8, seed uint64) bool {
		n := int(nRaw%5000) + 2
		theta := thetas[int(thetaRaw)%len(thetas)]
		z := ZipfReuse(ZipfReuseConfig{Seed: seed, Lines: n, Theta: theta}).(*zipfReuse)
		for range 20 {
			peek := *z.g.rng
			u := peek.Float64() // the draw sampleRank is about to make
			k := z.sampleRank()
			want := math.Pow(u*(math.Pow(float64(n), 1-theta)-1)+1, 1/(1-theta))
			if theta == 1 {
				want = math.Exp(u * math.Log(float64(n)))
			}
			if k < 1 || k > n || k != min(max(int(want), 1), n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfWriteFraction(t *testing.T) {
	refs := Collect(ZipfReuse(ZipfReuseConfig{Seed: 8, WriteFrac: 0.3}), 50000)
	s := Summarize(refs)
	if s.WriteFrac < 0.27 || s.WriteFrac > 0.33 {
		t.Fatalf("write fraction %.3f, want ≈0.3", s.WriteFrac)
	}
}
