package cache

import "tradeoff/internal/trace"

// AppProfile is the application characterization {E, R, W, α} of the
// paper's Table 1, as measured by running a trace through a cache. It is
// the bridge between the simulation substrate and the analytic model in
// internal/core.
type AppProfile struct {
	E        uint64  // instructions executed
	R        uint64  // data bytes read in full bus width on read misses (includes write-miss fetches under write-allocate)
	W        uint64  // write-around miss stores using the external bus
	Alpha    float64 // flush ratio: dirty bytes copied back / R
	HitRatio float64 // data-cache hit ratio over the run
	Misses   uint64  // Λm, load/store instructions that miss
	Refs     uint64  // total load/store references
}

// Measure replays refs through c and derives the paper's application
// parameters. The final instruction count E is taken from the last
// reference's instruction index. The cache is not reset first, so
// callers can warm it up beforehand and ResetStats to exclude warm-up.
func Measure(c *Cache, refs []trace.Ref) AppProfile {
	for _, r := range refs {
		c.Access(r.Addr, r.Write)
	}
	s := c.Stats()
	var p AppProfile
	if len(refs) > 0 {
		p.E = refs[len(refs)-1].Instr + 1
	}
	L := uint64(c.Config().LineSize)
	p.R = s.Fills * L
	p.W = s.Bypasses
	p.Alpha = s.FlushRatio()
	p.HitRatio = s.HitRatio()
	p.Misses = s.Misses()
	p.Refs = s.Accesses()
	return p
}

// MeasureSource replays up to n references from src. See Measure.
func MeasureSource(c *Cache, src trace.Source, n int) AppProfile {
	return Measure(c, trace.Collect(src, n))
}
