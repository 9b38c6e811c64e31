package trace

import "math"

// This file provides the primitive access-pattern generators from which
// the SPEC92-like program models in programs.go are composed. Each
// generator is an infinite Source; wrap with Limit to bound it.

// gapper advances a shared instruction counter with pseudo-random gaps,
// modeling the non-memory instructions between load/stores.
type gapper struct {
	rng   *RNG
	instr uint64
	hit   uint64 // a Bernoulli trial succeeds when its 53-bit draw is below ⌈p·2⁵³⌉, p = 1/mean
	limit uint64 // uint64(mean·20), the trial cap; 0 when mean ≤ 1
}

// newGapper returns a gapper drawing geometric gaps of the given mean
// (>= 1) from rng.
func newGapper(rng *RNG, mean float64) gapper {
	g := gapper{rng: rng}
	if mean > 1 {
		g.hit = uint64(math.Ceil(1 / mean * (1 << 53)))
		g.limit = uint64(mean * 20)
	}
	return g
}

// next returns the instruction index for the next memory reference.
// The gap is rng.Geometric(mean) with its per-call constants hoisted:
// Bool(p) compares float64(x>>11)/2⁵³ < p, and since both x>>11 and
// p·2⁵³ are exact in float64, that is x>>11 < ⌈p·2⁵³⌉, so the draws
// and the gaps are bit-identical.
func (g *gapper) next() uint64 {
	n := uint64(1)
	if g.limit != 0 {
		for g.rng.Uint64()>>11 >= g.hit && n < g.limit {
			n++
		}
	}
	g.instr += n
	return g.instr - 1
}

// SequentialConfig configures a Sequential generator.
type SequentialConfig struct {
	Seed      uint64
	Base      uint64  // starting byte address of the array region
	Length    uint64  // array region length in bytes
	Stride    uint64  // bytes between consecutive elements (>= ElemSize)
	ElemSize  uint8   // access size in bytes
	WriteFrac float64 // probability that an access is a store
	GapMean   float64 // mean instructions per reference
}

// Normalized returns the config with every zero-valued optional field
// replaced by the default the generator would apply — the exact
// parameters a Sequential source built from cfg runs with. The
// analytic model tier (internal/model) prices workloads from these
// normalized configs, so the normalization must stay the single
// source of truth for both.
func (cfg SequentialConfig) Normalized() SequentialConfig {
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 8
	}
	if cfg.Stride == 0 {
		cfg.Stride = uint64(cfg.ElemSize)
	}
	if cfg.Length == 0 {
		cfg.Length = 1 << 20
	}
	if cfg.GapMean < 1 {
		cfg.GapMean = 3
	}
	return cfg
}

// Sequential returns a generator that sweeps a region repeatedly with a
// fixed stride, the dominant pattern of vectorizable FP codes such as
// nasa7 and swm256. When the sweep reaches the end of the region it
// wraps to the base address (a new outer-loop iteration).
func Sequential(cfg SequentialConfig) Source {
	cfg = cfg.Normalized()
	return &sequential{cfg: cfg, g: newGapper(NewRNG(cfg.Seed), cfg.GapMean)}
}

type sequential struct {
	cfg SequentialConfig
	g   gapper
	off uint64
}

func (s *sequential) Next() (Ref, bool) {
	r := Ref{
		Instr: s.g.next(),
		Addr:  s.cfg.Base + s.off,
		Size:  s.cfg.ElemSize,
		Write: s.g.rng.Bool(s.cfg.WriteFrac),
	}
	s.off += s.cfg.Stride
	if s.off >= s.cfg.Length {
		s.off = 0
	}
	return r, true
}

// Stencil2DConfig configures a Stencil2D generator.
type Stencil2DConfig struct {
	Seed      uint64
	Base      uint64  // starting byte address of the grid
	Rows      int     // grid rows
	Cols      int     // grid columns
	ElemSize  uint8   // bytes per grid element
	Points    int     // stencil points read per cell update (e.g. 5)
	WriteBack bool    // whether each update stores the center cell
	GapMean   float64 // mean instructions per reference
}

// Stencil2D returns a generator producing row-major sweeps over a 2-D
// grid where each cell update reads a small neighborhood (north, south,
// east, west, center) and optionally writes the center. This is the
// characteristic pattern of the grid solvers swm256 and hydro2d: strong
// spatial locality along the row plus recurring strided accesses one
// row apart.
func Stencil2D(cfg Stencil2DConfig) Source {
	cfg = cfg.Normalized()
	return &stencil{cfg: cfg, g: newGapper(NewRNG(cfg.Seed), cfg.GapMean), row: 1, col: 1}
}

// Normalized returns the config with generator defaults applied; see
// SequentialConfig.Normalized.
func (cfg Stencil2DConfig) Normalized() Stencil2DConfig {
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 8
	}
	if cfg.Rows < 3 {
		cfg.Rows = 3
	}
	if cfg.Cols < 3 {
		cfg.Cols = 3
	}
	if cfg.Points <= 0 {
		cfg.Points = 5
	}
	if cfg.Points > 9 {
		cfg.Points = 9
	}
	if cfg.GapMean < 1 {
		cfg.GapMean = 3
	}
	return cfg
}

type stencil struct {
	cfg      Stencil2DConfig
	g        gapper
	row, col int
	point    int // next stencil point to emit for the current cell
}

func (s *stencil) addr(row, col int) uint64 {
	return s.cfg.Base + uint64(row*s.cfg.Cols+col)*uint64(s.cfg.ElemSize)
}

func (s *stencil) Next() (Ref, bool) {
	// Offsets of up to 9 stencil points, center first so the write-back
	// (emitted after all reads) revisits a just-read line.
	offsets := [9][2]int{{0, 0}, {0, -1}, {0, 1}, {-1, 0}, {1, 0}, {-1, -1}, {-1, 1}, {1, -1}, {1, 1}}
	points := s.cfg.Points
	if points > len(offsets) {
		points = len(offsets)
	}
	total := points
	if s.cfg.WriteBack {
		total++
	}
	var r Ref
	if s.point < points {
		o := offsets[s.point]
		r = Ref{Instr: s.g.next(), Addr: s.addr(s.row+o[0], s.col+o[1]), Size: s.cfg.ElemSize}
	} else {
		r = Ref{Instr: s.g.next(), Addr: s.addr(s.row, s.col), Size: s.cfg.ElemSize, Write: true}
	}
	s.point++
	if s.point >= total {
		s.point = 0
		s.col++
		if s.col >= s.cfg.Cols-1 {
			s.col = 1
			s.row++
			if s.row >= s.cfg.Rows-1 {
				s.row = 1
			}
		}
	}
	return r, true
}

// WorkingSetConfig configures a WorkingSet generator.
type WorkingSetConfig struct {
	Seed      uint64
	Base      uint64  // starting byte address of the heap region
	SetBytes  uint64  // size of the active working set in bytes
	HeapBytes uint64  // size of the whole region the set drifts within
	Migrate   float64 // per-reference probability the set shifts
	ElemSize  uint8
	WriteFrac float64
	GapMean   float64
}

// WorkingSet returns a generator making uniformly random accesses inside
// a working set that occasionally drifts across a larger heap. It models
// scalar, branchy codes with modest spatial locality such as doduc and
// ear. Smaller SetBytes raises temporal locality (higher hit ratio);
// larger SetBytes stresses the cache.
func WorkingSet(cfg WorkingSetConfig) Source {
	cfg = cfg.Normalized()
	return &workingSet{cfg: cfg, g: newGapper(NewRNG(cfg.Seed), cfg.GapMean)}
}

// Normalized returns the config with generator defaults applied; see
// SequentialConfig.Normalized.
func (cfg WorkingSetConfig) Normalized() WorkingSetConfig {
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 4
	}
	if cfg.SetBytes == 0 {
		cfg.SetBytes = 16 << 10
	}
	if cfg.HeapBytes < cfg.SetBytes {
		cfg.HeapBytes = cfg.SetBytes * 16
	}
	if cfg.GapMean < 1 {
		cfg.GapMean = 3
	}
	return cfg
}

type workingSet struct {
	cfg   WorkingSetConfig
	g     gapper
	start uint64 // offset of the working set within the heap
}

func (w *workingSet) Next() (Ref, bool) {
	rng := w.g.rng
	if rng.Bool(w.cfg.Migrate) {
		span := w.cfg.HeapBytes - w.cfg.SetBytes
		if span > 0 {
			w.start = rng.Uint64() % span
			w.start &^= uint64(w.cfg.ElemSize) - 1
		}
	}
	off := rng.Uint64() % w.cfg.SetBytes
	off &^= uint64(w.cfg.ElemSize) - 1
	return Ref{
		Instr: w.g.next(),
		Addr:  w.cfg.Base + w.start + off,
		Size:  w.cfg.ElemSize,
		Write: rng.Bool(w.cfg.WriteFrac),
	}, true
}

// PointerChaseConfig configures a PointerChase generator.
type PointerChaseConfig struct {
	Seed     uint64
	Base     uint64 // starting byte address of the node pool
	Nodes    int    // number of list nodes
	NodeSize uint64 // bytes per node (>= 8)
	Fields   int    // extra field reads per node visit
	GapMean  float64
}

// PointerChase returns a generator that walks a pseudo-random cyclic
// permutation of Nodes nodes, reading the link plus Fields payload
// fields of each node. It models irregular gather codes (the scatter
// phases of wave5): almost no spatial reuse across nodes, so nearly
// every node visit begins a fresh line.
func PointerChase(cfg PointerChaseConfig) Source {
	cfg = cfg.Normalized()
	rng := NewRNG(cfg.Seed)
	// Build a random cyclic permutation with Sattolo's algorithm so the
	// walk visits every node before repeating.
	next := make([]int, cfg.Nodes)
	for i := range next {
		next[i] = i
	}
	for i := cfg.Nodes - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &pointerChase{cfg: cfg, g: newGapper(rng, cfg.GapMean), next: next}
}

// Normalized returns the config with generator defaults applied; see
// SequentialConfig.Normalized.
func (cfg PointerChaseConfig) Normalized() PointerChaseConfig {
	if cfg.Nodes <= 1 {
		cfg.Nodes = 1024
	}
	if cfg.NodeSize < 8 {
		cfg.NodeSize = 64
	}
	if cfg.GapMean < 1 {
		cfg.GapMean = 3
	}
	return cfg
}

type pointerChase struct {
	cfg   PointerChaseConfig
	g     gapper
	next  []int
	cur   int
	field int // 0 = link read; 1..Fields = payload reads
}

func (p *pointerChase) Next() (Ref, bool) {
	base := p.cfg.Base + uint64(p.cur)*p.cfg.NodeSize
	var r Ref
	if p.field == 0 {
		r = Ref{Instr: p.g.next(), Addr: base, Size: 8}
	} else {
		off := (uint64(p.field) * 8) % p.cfg.NodeSize
		r = Ref{Instr: p.g.next(), Addr: base + off, Size: 8}
	}
	p.field++
	if p.field > p.cfg.Fields {
		p.field = 0
		p.cur = p.next[p.cur]
	}
	return r, true
}

// MixConfig pairs a generator with a selection weight.
type MixConfig struct {
	Source Source
	Weight float64
}

// Mix interleaves several sources, choosing the next source with
// probability proportional to its weight and preserving a single
// non-decreasing instruction index across the blend. Each draw emits a
// burst of burstLen references from the chosen source, modeling phased
// program behaviour. burstLen < 1 is treated as 1.
func Mix(seed uint64, burstLen int, parts ...MixConfig) Source {
	if burstLen < 1 {
		burstLen = 1
	}
	total := 0.0
	for _, p := range parts {
		total += p.Weight
	}
	return &mix{rng: NewRNG(seed), parts: parts, totalW: total, burst: burstLen}
}

type mix struct {
	rng    *RNG
	parts  []MixConfig
	totalW float64
	burst  int

	cur     int
	left    int    // references left in the current burst
	instr   uint64 // unified instruction counter
	lastSub uint64 // last sub-source instruction index (per current part)
}

func (m *mix) Next() (Ref, bool) {
	if len(m.parts) == 0 {
		return Ref{}, false
	}
	if m.left <= 0 {
		x := m.rng.Float64() * m.totalW
		for i, p := range m.parts {
			if x < p.Weight || i == len(m.parts)-1 {
				m.cur = i
				break
			}
			x -= p.Weight
		}
		m.left = m.burst
		m.lastSub = 0
	}
	r, ok := m.parts[m.cur].Source.Next()
	if !ok {
		// Drop the exhausted part and retry with the rest.
		m.parts = append(m.parts[:m.cur], m.parts[m.cur+1:]...)
		m.totalW = 0
		for _, p := range m.parts {
			m.totalW += p.Weight
		}
		m.left = 0
		return m.Next()
	}
	// Re-base the sub-source instruction index onto the unified counter,
	// preserving the sub-source's inter-reference gaps within a burst.
	var gap uint64
	if m.lastSub == 0 || r.Instr <= m.lastSub {
		gap = 1 + m.rng.Uint64()%4
	} else {
		gap = r.Instr - m.lastSub
	}
	m.lastSub = r.Instr
	m.instr += gap
	r.Instr = m.instr - 1
	m.left--
	return r, true
}
