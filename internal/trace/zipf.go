package trace

import "math"

// ZipfReuseConfig configures a ZipfReuse generator.
type ZipfReuseConfig struct {
	Seed      uint64
	Base      uint64  // starting byte address of the region
	Lines     int     // number of distinct lines the trace may touch
	LineBytes int     // reuse granularity in bytes (default 32)
	Theta     float64 // popularity skew θ > 0; larger = tighter locality (default 1.0)
	WriteFrac float64
	GapMean   float64
}

// ZipfReuse returns a generator following the independent-reference
// model with Zipf-distributed line popularity: each reference touches
// line i with probability ∝ (i+1)^(−θ), and popular lines are scattered
// across the address space so set-index conflicts behave naturally.
//
// Unlike the loop/stencil generators — whose miss ratios plateau once
// their working set fits — this yields the smooth miss-ratio-vs-size
// curves of general-purpose workloads (Short & Levy's traces in the
// paper's Example 1), where every cache doubling buys a predictable
// hit-ratio increment.
func ZipfReuse(cfg ZipfReuseConfig) Source {
	cfg = cfg.Normalized()
	rng := NewRNG(cfg.Seed)
	// Scatter popularity ranks over the region so that hot lines do not
	// all collide in the same cache sets: rank i maps to line perm[i]
	// via a linear permutation with an odd multiplier.
	mul := rng.Uint64() | 1 | 1
	z := &zipfReuse{cfg: cfg, g: newGapper(rng, cfg.GapMean), mul: mul}
	n := float64(cfg.Lines)
	z.harmonic = math.Abs(cfg.Theta-1) < 1e-9
	if z.harmonic {
		z.logN = math.Log(n)
	} else {
		z.nPow, z.invOneMinus = math.Pow(n, 1-cfg.Theta), 1/(1-cfg.Theta)
	}
	return z
}

// Normalized returns the config with generator defaults applied; see
// SequentialConfig.Normalized.
func (cfg ZipfReuseConfig) Normalized() ZipfReuseConfig {
	if cfg.Lines <= 1 {
		cfg.Lines = 32768
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 32
	}
	if cfg.Theta <= 0 {
		cfg.Theta = 1.0
	}
	if cfg.GapMean < 1 {
		cfg.GapMean = 3
	}
	return cfg
}

type zipfReuse struct {
	cfg ZipfReuseConfig
	g   gapper
	mul uint64

	// sampleRank's constants, computed once per generator from
	// n = cfg.Lines and θ = cfg.Theta.
	harmonic    bool    // θ = 1: the CDF is ∝ ln k
	logN        float64 // ln n, when harmonic
	nPow        float64 // n^(1−θ), otherwise
	invOneMinus float64 // 1/(1−θ), otherwise
}

// sampleRank draws a popularity rank in [1, n], n = cfg.Lines, with
// P(k) ∝ k^(−θ) via inverse-CDF sampling of the continuous
// approximation.
func (z *zipfReuse) sampleRank() int {
	n := z.cfg.Lines
	u := z.g.rng.Float64()
	var k float64
	if z.harmonic {
		k = math.Exp(u * z.logN)
	} else {
		k = math.Pow(u*(z.nPow-1)+1, z.invOneMinus)
	}
	d := int(k)
	if d < 1 {
		d = 1
	}
	if d > n {
		d = n
	}
	return d
}

func (z *zipfReuse) Next() (Ref, bool) {
	rank := uint64(z.sampleRank() - 1)
	lineIdx := (rank * z.mul) % uint64(z.cfg.Lines)
	off := z.g.rng.Uint64() % uint64(z.cfg.LineBytes)
	off &^= 3 // 4-byte aligned accesses
	return Ref{
		Instr: z.g.next(),
		Addr:  z.cfg.Base + lineIdx*uint64(z.cfg.LineBytes) + off,
		Size:  4,
		Write: z.g.rng.Bool(z.cfg.WriteFrac),
	}, true
}
