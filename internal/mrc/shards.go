package mrc

import (
	"fmt"
	"math"

	"tradeoff/internal/trace"
)

// shardsModulus is P, the spatial-hash modulus: a block is sampled
// when hash(block) mod P < T, giving sampling rate R = T/P. 2²⁴
// distinct thresholds is far finer than any rate this package needs.
const shardsModulus = 1 << 24

// SamplerConfig tunes a SampledProfiler. Validate enforces the
// domains: Rate ∈ (0, 1] and Budget ≥ 1 — a zero value is an invalid
// config, not a default; use DefaultSampler for the documented
// starting point.
type SamplerConfig struct {
	// Rate is the initial sampling rate T/P: the expected fraction of
	// distinct blocks (and so of references) the profiler tracks.
	Rate float64 `json:"rate"`
	// Budget is s_max, the maximum number of concurrently tracked
	// blocks. When the working set at the current rate exceeds it, the
	// threshold drops (evicting the highest-hash blocks) so memory
	// stays bounded on any trace.
	Budget int `json:"budget"`
}

// DefaultSampler is the rate/budget pair the sweep engine defaults
// to: 10% sampling resolves the 10⁴–10⁵-block working sets of the
// bundled workloads well inside the documented tolerance, and an 8Ki
// budget caps the index at roughly the size of one 256 KiB cache's
// tag store.
func DefaultSampler() SamplerConfig {
	return SamplerConfig{Rate: 0.1, Budget: 8 << 10}
}

// Validate reports configurations outside the sampler's domain.
func (c SamplerConfig) Validate() error {
	if c.Rate <= 0 || c.Rate > 1 || math.IsNaN(c.Rate) {
		return fmt.Errorf("mrc: sampler rate %g outside its domain (0, 1]", c.Rate)
	}
	if c.Budget < 1 {
		return fmt.Errorf("mrc: sampler budget %d, want >= 1", c.Budget)
	}
	return nil
}

// hashEntry is one tracked block and its spatial hash.
type hashEntry struct {
	hash  uint64
	block uint64
}

// hashHeap is a max-heap on hash, so the next block to evict when the
// budget is exceeded — the highest-hash one — is always on top. push
// and pop make container/heap's swaps without boxing each entry.
type hashHeap []hashEntry

// push adds e and sifts it up.
func (h *hashHeap) push(e hashEntry) {
	s := append(*h, e)
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].hash <= s[i].hash {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

// pop removes and returns the top entry: it swaps the last entry to
// the top and sifts it down.
func (h *hashHeap) pop() hashEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && s[j+1].hash > s[j].hash {
			j++
		}
		if s[j].hash <= s[i].hash {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// SampledProfiler approximates a reuse-distance profile by SHARDS
// spatial hashing: only blocks hashing under the threshold are
// tracked, each sampled reference contributes weight P/T to the
// histogram at distance d·P/T (d measured over sampled blocks), and
// exceeding the budget lowers the threshold by evicting the
// highest-hash blocks. Curve applies the SHARDS_adj correction,
// rescaling the estimated totals onto the observed reference count.
// Not safe for concurrent use.
type SampledProfiler struct {
	lineShift uint
	lineSize  int
	threshold uint64 // T: track blocks with hash < T
	budget    int
	tree      *stackTree
	tracked   hashHeap
	hist      map[uint64]float64 // scaled distance → weight
	cold      float64
	refs      uint64
}

// newSampledProfiler validates lineSize and cfg and returns a SHARDS
// profiler over tree, which must be empty.
func newSampledProfiler(lineSize int, cfg SamplerConfig, tree *stackTree) (SampledProfiler, error) {
	if err := validLineSize(lineSize); err != nil {
		return SampledProfiler{}, err
	}
	if err := cfg.Validate(); err != nil {
		return SampledProfiler{}, err
	}
	t := uint64(math.Ceil(cfg.Rate * shardsModulus))
	if t == 0 {
		t = 1
	}
	return SampledProfiler{
		lineShift: log2(uint64(lineSize)),
		lineSize:  lineSize,
		threshold: t,
		budget:    cfg.Budget,
		tree:      tree,
		hist:      make(map[uint64]float64),
	}, nil
}

// hashBlock is the 64-bit finalizer of MurmurHash3 — a cheap
// statistically uniform spatial hash, the property SHARDS sampling
// rests on.
func hashBlock(b uint64) uint64 {
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	b ^= b >> 33
	return b
}

// Rate returns the current sampling rate T/P, which only decreases as
// the budget forces threshold drops.
func (p *SampledProfiler) Rate() float64 {
	return float64(p.threshold) / shardsModulus
}

// Access records one reference, tracking it only when its block
// hashes under the current threshold.
func (p *SampledProfiler) Access(addr uint64) {
	p.refs++
	block := addr >> p.lineShift
	h := hashBlock(block) & (shardsModulus - 1)
	if h >= p.threshold {
		return
	}
	w := float64(shardsModulus) / float64(p.threshold)
	d := p.tree.access(block)
	if d < 0 {
		p.cold += w
		p.tracked.push(hashEntry{hash: h, block: block})
		if p.tree.blocks() > p.budget {
			p.evict()
		}
		return
	}
	p.hist[uint64(float64(d)*w)] += w
}

// evict lowers the threshold to the highest tracked hash, forgetting
// every block at or above it, until the budget holds again. Future
// references to evicted blocks hash over the new threshold, so they
// are consistently ignored rather than re-sampled as cold.
func (p *SampledProfiler) evict() {
	for p.tree.blocks() > p.budget && len(p.tracked) > 0 {
		top := p.tracked.pop()
		p.threshold = top.hash
		p.tree.remove(top.block)
		for len(p.tracked) > 0 && p.tracked[0].hash >= p.threshold {
			p.tree.remove(p.tracked.pop().block)
		}
	}
}

// Curve reduces the sampled profile into an estimated miss-ratio
// curve, rescaled (SHARDS_adj) so the weighted reference total equals
// the number of references actually seen.
func (p *SampledProfiler) Curve() *Curve {
	dist, weight := sortHist(p.hist)
	c := newCurve(p.lineSize, p.refs, p.tree.blocks(), true, p.Rate(), dist, weight, p.cold)
	if c.totalW > 0 && p.refs > 0 {
		c.rescale(float64(p.refs) / c.totalW)
	}
	return c
}

// ProfileSampledRefs builds the SHARDS curve of a materialized trace,
// on a pooled stack tree.
func ProfileSampledRefs(refs []trace.Ref, lineSize int, cfg SamplerConfig) (*Curve, error) {
	ix := takeIndex()
	defer ix.release()
	p, err := newSampledProfiler(lineSize, cfg, &ix.tree)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		p.Access(r.Addr)
	}
	return p.Curve(), nil
}
