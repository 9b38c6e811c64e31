// Package linesize selects optimal cache line sizes and validates the
// paper's line-size tradeoff (Eq. 19) against Smith's criterion
// (Eq. 16), reproducing §5.4 and Figure 6.
//
// All selections work over a missratio.Surface — either the calibrated
// design-target model or a simulator-measured table — so the validation
// (both criteria pick the same line) can be checked on either source.
package linesize

import (
	"fmt"
	"math"

	"tradeoff/internal/core"
	"tradeoff/internal/missratio"
)

// Config describes one Figure 6 design point. The paper's subcaptions
// give memory timing as latency-ns + ns/byte; with the bus speed β
// normalized to hit cycles, the access latency becomes c = 1 + λβ where
// λ = LatencyNS / (NSPerByte · D) (see DESIGN.md §4, substitution 4).
type Config struct {
	CacheSize int     // bytes
	BusWidth  int     // D, bytes
	LatencyNS float64 // constant memory access latency, ns
	NSPerByte float64 // transfer time per byte, ns
	Lines     []int   // candidate line sizes, ascending; Lines[0] is the base L0
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.CacheSize <= 0:
		return fmt.Errorf("linesize: cache size %d", c.CacheSize)
	case c.BusWidth <= 0:
		return fmt.Errorf("linesize: bus width %d", c.BusWidth)
	case c.LatencyNS <= 0 || c.NSPerByte <= 0:
		return fmt.Errorf("linesize: timing %gns + %gns/B", c.LatencyNS, c.NSPerByte)
	case len(c.Lines) < 2:
		return fmt.Errorf("linesize: need at least two candidate lines, got %v", c.Lines)
	}
	for i, l := range c.Lines {
		if l < c.BusWidth {
			return fmt.Errorf("linesize: line %d below bus width %d", l, c.BusWidth)
		}
		if i > 0 && l <= c.Lines[i-1] {
			return fmt.Errorf("linesize: lines not strictly ascending: %v", c.Lines)
		}
	}
	return nil
}

// Lambda returns λ = LatencyNS/(NSPerByte·D), the latency expressed in
// D-byte transfer times; the normalized access latency is c = 1 + λβ.
func (c Config) Lambda() float64 {
	return c.LatencyNS / (c.NSPerByte * float64(c.BusWidth))
}

// CAt returns the normalized access latency c at bus speed beta.
func (c Config) CAt(beta float64) float64 { return 1 + c.Lambda()*beta }

// SmithOptimal picks the line minimizing Smith's objective (Eq. 16):
// miss ratio × miss penalty, penalty = (c − 1) + β·L/D.
func SmithOptimal(s missratio.Surface, cfg Config, beta float64) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	cNorm := cfg.CAt(beta)
	return argmin(cfg.Lines, beta, func(i int) float64 {
		l := cfg.Lines[i]
		return s.MissRatio(cfg.CacheSize, l) * (cNorm - 1 + beta*float64(l)/float64(cfg.BusWidth))
	})
}

// argmin returns the first candidate line with the least objective,
// objective(i) scoring lines[i]. It fails when no candidate's
// objective is below +Inf — every one is +Inf or NaN, as when the
// inputs overflow float64 — rather than return a line that was never
// a candidate.
func argmin(lines []int, beta float64, objective func(i int) float64) (int, error) {
	best, bestV := -1, math.Inf(1)
	for i := range lines {
		if v := objective(i); v < bestV {
			best, bestV = i, v
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("linesize: no candidate line of %v has a finite objective at β = %g", lines, beta)
	}
	return lines[best], nil
}

// MeanDelayOptimal picks the line minimizing Eq. (15)'s mean memory
// delay per reference directly. The paper notes this and Smith's
// criterion agree because hit cycle times are equal.
func MeanDelayOptimal(s missratio.Surface, cfg Config, beta float64) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	cNorm := cfg.CAt(beta)
	return argmin(cfg.Lines, beta, func(i int) float64 {
		l := cfg.Lines[i]
		hr := 1 - s.MissRatio(cfg.CacheSize, l)
		return core.MeanDelayPerRef(hr, cNorm, beta, float64(l), float64(cfg.BusWidth))
	})
}

// Point is one (line size, reduced delay) sample of Eq. (19).
type Point struct {
	Line    int
	Reduced float64 // memory delay per reference saved vs the base line
}

// ReducedDelays evaluates Eq. (19) for every candidate line against the
// base line cfg.Lines[0] at bus speed beta. Positive values justify the
// larger line; the maximum identifies the optimal size (§5.4.2).
func ReducedDelays(s missratio.Surface, cfg Config, beta float64) ([]Point, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cNorm := cfg.CAt(beta)
	l0 := cfg.Lines[0]
	hr0 := 1 - s.MissRatio(cfg.CacheSize, l0)
	pts := make([]Point, 0, len(cfg.Lines))
	for _, l := range cfg.Lines {
		var rd float64
		if l != l0 {
			hrI := 1 - s.MissRatio(cfg.CacheSize, l)
			var err error
			rd, err = core.ReducedDelay(hr0, hrI, cNorm, beta, float64(l0), float64(l), float64(cfg.BusWidth))
			if err != nil {
				return nil, err
			}
		}
		pts = append(pts, Point{Line: l, Reduced: rd})
	}
	return pts, nil
}

// Eq19Optimal picks the line maximizing Eq. (19)'s reduced memory
// delay. Because Eq. (19) equals the direct delay difference (see
// core.ReducedDelay), it must always match SmithOptimal — the paper's
// validation, asserted by TestEq19MatchesSmithEverywhere. Every
// reduced delay is a difference from the base line's delay, so when
// that delay or any reduced delay is not finite, it fails as the other
// selectors do rather than rank the base line's zero first.
func Eq19Optimal(s missratio.Surface, cfg Config, beta float64) (int, error) {
	pts, err := ReducedDelays(s, cfg, beta)
	if err != nil {
		return 0, err
	}
	nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	l0 := cfg.Lines[0]
	none := nonFinite(core.MeanDelayPerRef(1-s.MissRatio(cfg.CacheSize, l0), cfg.CAt(beta), beta, float64(l0), float64(cfg.BusWidth)))
	for _, p := range pts {
		none = none || nonFinite(p.Reduced)
	}
	// Maximizing the reduced delay is minimizing its negation.
	return argmin(cfg.Lines, beta, func(i int) float64 {
		if none {
			return math.Inf(1)
		}
		return -pts[i].Reduced
	})
}

// UsefulBusSpeeds returns the bus speeds (among betas) at which line li
// yields a positive reduced delay over the base line — the "beneficial
// range of bus speed" of §5.4.2.
func UsefulBusSpeeds(s missratio.Surface, cfg Config, li int, betas []float64) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []float64
	for _, beta := range betas {
		pts, err := ReducedDelays(s, cfg, beta)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if p.Line == li && p.Reduced > 0 {
				out = append(out, beta)
			}
		}
	}
	return out, nil
}
