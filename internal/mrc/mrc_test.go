package mrc

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tradeoff/internal/trace"
)

// bruteDistance is the textbook O(refs × stackDepth) LRU stack, the
// oracle for stackTree.
type bruteStack struct {
	stack []uint64
}

func (b *bruteStack) access(block uint64) int {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i] == block {
			d := len(b.stack) - 1 - i
			b.stack = append(b.stack[:i], b.stack[i+1:]...)
			b.stack = append(b.stack, block)
			return d
		}
	}
	b.stack = append(b.stack, block)
	return -1
}

func (b *bruteStack) remove(block uint64) {
	for i, x := range b.stack {
		if x == block {
			b.stack = append(b.stack[:i], b.stack[i+1:]...)
			return
		}
	}
}

// freshProfiler returns an exact profiler at line on a private tree,
// outside the index pool.
func freshProfiler(t *testing.T, line int) *Profiler {
	t.Helper()
	if err := validLineSize(line); err != nil {
		t.Fatal(err)
	}
	tree := newStackTree()
	return &Profiler{lineShift: log2(uint64(line)), lineSize: line, tree: &tree}
}

// freshSampledProfiler returns a SHARDS profiler at line on a private
// tree, outside the index pool.
func freshSampledProfiler(t *testing.T, line int, cfg SamplerConfig) *SampledProfiler {
	t.Helper()
	tree := newStackTree()
	p, err := newSampledProfiler(line, cfg, &tree)
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestStackTreeMatchesBruteForce(t *testing.T) {
	// A working set of about 5,000 blocks doubles the table and the slot
	// bits from their initial 1<<10 several times, with probe runs long
	// enough for collisions; once the slot bits settle, the remaining
	// accesses force in-place renumbers. Block numbers are random 64-bit
	// values — a run of consecutive ones would hash without a single
	// collision. Every 31st access removes a random block, which the
	// uniform stream later re-accesses, so backward-shift deletion runs
	// inside probe runs and its survivors must stay reachable. A second
	// round over fresh blocks reuses the tree after reset, as a pooled
	// pass does, and concentrates its stream on a small hot set.
	const blocks = 5000
	tree := newStackTree()
	cells0, slots0 := len(tree.table), 64*len(tree.occ)
	rng := uint64(0x9E3779B97F4A7C15)
	xorshift := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for round := 0; round < 2; round++ {
		if round > 0 {
			tree.reset()
		}
		brute := &bruteStack{}
		ids := make([]uint64, blocks)
		for i := range ids {
			ids[i] = xorshift()
		}
		inPlace := 0
		for i := 0; i < 60000; i++ {
			r := xorshift()
			block := ids[r%blocks]
			if round > 0 && r%4 != 0 {
				block = ids[r%200]
			}
			slots, next := len(tree.occ), tree.next
			got, want := tree.access(block), brute.access(block)
			if got != want {
				t.Fatalf("round %d, access %d (block %d): stackTree distance %d, brute force %d", round, i, block, got, want)
			}
			if len(tree.occ) == slots && tree.next < next {
				inPlace++
			}
			if r%31 == 0 {
				victim := ids[xorshift()%blocks]
				tree.remove(victim)
				brute.remove(victim)
			}
			if tree.blocks() != len(brute.stack) {
				t.Fatalf("round %d, access %d: stackTree tracks %d blocks, brute force %d", round, i, tree.blocks(), len(brute.stack))
			}
		}
		if inPlace < 3 {
			t.Errorf("round %d: %d in-place renumbers, want at least 3", round, inPlace)
		}
	}
	if len(tree.table) < 8*cells0 || 64*len(tree.occ) < 8*slots0 {
		t.Errorf("table grew %d → %d cells and slots %d → %d, want both doubled at least 3 times",
			cells0, len(tree.table), slots0, 64*len(tree.occ))
	}
	displaced := 0
	for i, e := range tree.table {
		if e.slot != 0 && tree.home(e.block) != i {
			displaced++
		}
	}
	if displaced == 0 {
		t.Error("no table entry sits away from its home cell: probing never collided")
	}
}

// TestProfileRefsMatchesBruteForce checks every field of an exact
// curve against one built independently from bruteStack distances.
func TestProfileRefsMatchesBruteForce(t *testing.T) {
	for _, name := range trace.Workloads() {
		refs := trace.Collect(trace.MustWorkload(name, 3), 3000)
		for _, line := range []int{16, 32, 64, 128} {
			got, err := ProfileRefs(refs, line)
			if err != nil {
				t.Fatal(err)
			}
			brute := &bruteStack{}
			counts := map[uint64]float64{}
			want := &Curve{LineSize: line, Refs: uint64(len(refs)), Rate: 1}
			for _, r := range refs {
				if d := brute.access(r.Addr / uint64(line)); d < 0 {
					want.coldW++
				} else {
					counts[uint64(d)]++
				}
			}
			want.Blocks = len(brute.stack)
			for d := range counts {
				want.dist = append(want.dist, d)
			}
			slices.Sort(want.dist)
			for _, d := range want.dist {
				want.totalW += counts[d]
				want.weight = append(want.weight, counts[d])
				want.cum = append(want.cum, want.totalW)
			}
			want.totalW += want.coldW
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d B lines: ProfileRefs curve differs from brute force:\n got  Refs=%d Blocks=%d cold=%g total=%g, %d distances\n want Refs=%d Blocks=%d cold=%g total=%g, %d distances",
					name, line, got.Refs, got.Blocks, got.coldW, got.totalW, len(got.dist),
					want.Refs, want.Blocks, want.coldW, want.totalW, len(want.dist))
			}
		}
	}
}

func TestProfilerSmallTrace(t *testing.T) {
	// a b c a b c: 3 cold misses, then 3 references at distance 2.
	p := freshProfiler(t, 64)
	for _, b := range []uint64{0, 1, 2, 0, 1, 2} {
		p.Access(b * 64)
	}
	c := p.Curve()
	if c.Refs != 6 || c.Blocks != 3 {
		t.Fatalf("Refs=%d Blocks=%d, want 6 and 3", c.Refs, c.Blocks)
	}
	if got := c.ColdMisses(); got != 3 {
		t.Fatalf("ColdMisses=%g, want 3", got)
	}
	if got := c.MaxDistance(); got != 2 {
		t.Fatalf("MaxDistance=%d, want 2", got)
	}
	// 2 lines: distance 2 misses. 3 lines: distance 2 hits.
	if got := c.HitRatio(2 * 64); got != 0 {
		t.Fatalf("HitRatio(2 lines)=%g, want 0", got)
	}
	if got, want := c.HitRatio(3*64), 0.5; got != want {
		t.Fatalf("HitRatio(3 lines)=%g, want %g", got, want)
	}
	if got, want := c.MissRatio(3*64), 0.5; got != want {
		t.Fatalf("MissRatio(3 lines)=%g, want %g", got, want)
	}
}

func TestCurveMonotone(t *testing.T) {
	c, err := ProfileRefs(trace.Collect(trace.MustWorkload(trace.Ear, 1), 30000), 32)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for size := 32; size <= 1<<20; size *= 2 {
		hr := c.HitRatio(size)
		if hr < prev {
			t.Fatalf("HitRatio not monotone: %g at %d bytes after %g", hr, size, prev)
		}
		if hr < 0 || hr > 1 {
			t.Fatalf("HitRatio(%d)=%g outside [0,1]", size, hr)
		}
		prev = hr
	}
	// A cache bigger than every observed distance only misses cold.
	huge := int(c.MaxDistance()+2) * 32 * 2
	want := 1 - c.ColdMisses()/float64(c.Refs)
	if got := c.HitRatio(huge); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HitRatio(huge)=%g, want 1-cold/refs=%g", got, want)
	}
}

func TestEmptyCurve(t *testing.T) {
	p := freshProfiler(t, 64)
	c := p.Curve()
	if got := c.HitRatio(1 << 20); got != 0 {
		t.Fatalf("empty curve HitRatio=%g, want 0 (matching cache.Stats)", got)
	}
	if got := c.MissRatio(1 << 20); got != 0 {
		t.Fatalf("empty curve MissRatio=%g, want 0", got)
	}
}

func TestProfileRejectsBadLineSize(t *testing.T) {
	refs := trace.Collect(trace.MustWorkload(trace.Ear, 1), 100)
	for _, bad := range []int{0, -8, 24, 100} {
		if _, err := ProfileRefs(refs, bad); err == nil {
			t.Errorf("ProfileRefs(%d): want error", bad)
		}
		if _, err := ProfileSampledRefs(refs, bad, DefaultSampler()); err == nil {
			t.Errorf("ProfileSampledRefs(%d): want error", bad)
		}
	}
}

func TestSamplerConfigValidate(t *testing.T) {
	cases := []struct {
		cfg SamplerConfig
		ok  bool
	}{
		{SamplerConfig{Rate: 0.1, Budget: 1}, true},
		{SamplerConfig{Rate: 1, Budget: 1 << 20}, true},
		{SamplerConfig{Rate: 0, Budget: 100}, false},
		{SamplerConfig{Rate: -0.5, Budget: 100}, false},
		{SamplerConfig{Rate: 1.5, Budget: 100}, false},
		{SamplerConfig{Rate: math.NaN(), Budget: 100}, false},
		{SamplerConfig{Rate: 0.5, Budget: 0}, false},
		{SamplerConfig{Rate: 0, Budget: 0}, false},
		{SamplerConfig{Rate: 2, Budget: 8192}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("Validate(%+v): unexpected error %v", tc.cfg, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Validate(%+v): want error", tc.cfg)
		}
	}
	if err := DefaultSampler().Validate(); err != nil {
		t.Errorf("DefaultSampler invalid: %v", err)
	}
}

func TestSampledRateOneMatchesExact(t *testing.T) {
	// At rate 1 with an unconstrained budget every block is tracked
	// with weight 1, so the SHARDS curve degenerates to the exact one.
	const refs, line = 20000, 64
	tr := trace.Collect(trace.MustWorkload(trace.Swm256, 7), refs)
	exact, err := ProfileRefs(tr, line)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := ProfileSampledRefs(tr, line, SamplerConfig{Rate: 1, Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for size := line; size <= 1<<20; size *= 2 {
		if g, w := sampled.HitRatio(size), exact.HitRatio(size); g != w {
			t.Fatalf("rate-1 sampled HitRatio(%d)=%g, exact %g", size, g, w)
		}
	}
	if sampled.Blocks != exact.Blocks || sampled.Refs != exact.Refs {
		t.Fatalf("rate-1 sampled Blocks/Refs %d/%d, exact %d/%d",
			sampled.Blocks, sampled.Refs, exact.Blocks, exact.Refs)
	}
}

func TestSampledBudgetBoundsTracking(t *testing.T) {
	const budget = 128
	p := freshSampledProfiler(t, 64, SamplerConfig{Rate: 1, Budget: budget})
	// Touch far more distinct blocks than the budget allows.
	for b := uint64(0); b < 64*budget; b++ {
		p.Access(b * 64)
		if got := p.tree.blocks(); got > budget {
			t.Fatalf("tracked %d blocks, budget %d", got, budget)
		}
	}
	if r := p.Rate(); r >= 1 {
		t.Fatalf("rate %g did not adapt below the initial 1", r)
	}
	c := p.Curve()
	if !c.Sampled {
		t.Fatal("curve not marked sampled")
	}
	// SHARDS_adj pins the weighted total to the observed references.
	if math.Abs(c.totalW-float64(c.Refs)) > 1e-6*float64(c.Refs) {
		t.Fatalf("rescaled total %g, want %d", c.totalW, c.Refs)
	}
}

func TestHitProb(t *testing.T) {
	hitProbAt := func(d uint64, assoc int, p float64) float64 {
		return hitProb(d, assoc, p, math.Log1p(-p))
	}
	if got := hitProbAt(3, 4, 0.25); got != 1 {
		t.Fatalf("hitProb(d<assoc)=%g, want 1", got)
	}
	// d=2, assoc=1, p=0.5: hit iff both intervening blocks avoid the
	// set: 0.25.
	if got, want := hitProbAt(2, 1, 0.5), 0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("hitProb(2,1,0.5)=%g, want %g", got, want)
	}
	// Monotone: deeper distances cannot raise the hit probability.
	prev := 1.0
	for d := uint64(0); d < 200; d += 7 {
		got := hitProbAt(d, 4, 1.0/16)
		if got > prev+1e-12 {
			t.Fatalf("hitProb not monotone at d=%d: %g after %g", d, got, prev)
		}
		if got < 0 || got > 1 {
			t.Fatalf("hitProb(%d)=%g outside [0,1]", d, got)
		}
		prev = got
	}
}

// hitRatioAssocRef is HitRatioAssoc's Smith correction written out with
// log(1−p) evaluated at every distance: the reference the evaluator,
// which computes it once per call, must match bit for bit.
func hitRatioAssocRef(c *Curve, cacheSize, assoc int) float64 {
	lines := cacheSize / c.LineSize
	if assoc <= 0 || lines <= assoc || lines/assoc <= 1 {
		return c.HitRatio(cacheSize)
	}
	p := 1 / float64(lines/assoc)
	hits := 0.0
	for i, d := range c.dist {
		prob := 1.0
		if d >= uint64(assoc) {
			term := math.Exp(float64(d) * math.Log1p(-p))
			sum := term
			for j := 1; j < assoc; j++ {
				term *= (float64(d) - float64(j-1)) / float64(j) * p / (1 - p)
				sum += term
			}
			prob = math.Min(1, sum)
		}
		hits += c.weight[i] * prob
	}
	return hits / c.totalW
}

func TestHitRatioAssocMatchesReferenceBitForBit(t *testing.T) {
	for _, name := range trace.Workloads() {
		refs := trace.Collect(trace.MustWorkload(name, 5), 20000)
		for _, line := range []int{16, 32, 64, 128} {
			c, err := ProfileRefs(refs, line)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1 << 10, 8 << 10, 24 << 10, 64 << 10} {
				for _, assoc := range []int{1, 2, 3, 4, 8} {
					got, want := c.HitRatioAssoc(size, assoc), hitRatioAssocRef(c, size, assoc)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s line %d size %d assoc %d: HitRatioAssoc %v, reference %v",
							name, line, size, assoc, got, want)
					}
				}
			}
		}
	}
}

func TestHitRatioAssocFallsBackToExact(t *testing.T) {
	c, err := ProfileRefs(trace.Collect(trace.MustWorkload(trace.Ear, 3), 20000), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1 << 12, 1 << 14, 1 << 16} {
		if g, w := c.HitRatioAssoc(size, 0), c.HitRatio(size); g != w {
			t.Fatalf("HitRatioAssoc(%d, 0)=%g, want exact %g", size, g, w)
		}
		// One set (assoc == lines) is fully associative.
		if g, w := c.HitRatioAssoc(size, size/64), c.HitRatio(size); g != w {
			t.Fatalf("HitRatioAssoc(%d, lines)=%g, want exact %g", size, g, w)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Workload: trace.Ear, Refs: 1000, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Workload: "mystery", Refs: 1000, LineSize: 64},
		{Workload: trace.Ear, Refs: 0, LineSize: 64},
		{Workload: trace.Ear, Refs: 1000, LineSize: 48},
		{Workload: trace.Ear, Refs: 1000, LineSize: 64, Sampled: true},
		{Workload: trace.Ear, Refs: 20000, LineSize: -64},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", s)
		}
	}
}

func TestSpecKeyDistinguishes(t *testing.T) {
	base := Spec{Workload: trace.Ear, Seed: 1, Refs: 1000, LineSize: 64}
	variants := []Spec{
		{Workload: trace.Doduc, Seed: 1, Refs: 1000, LineSize: 64},
		{Workload: trace.Ear, Seed: 2, Refs: 1000, LineSize: 64},
		{Workload: trace.Ear, Seed: 1, Refs: 2000, LineSize: 64},
		{Workload: trace.Ear, Seed: 1, Refs: 1000, LineSize: 32},
		{Workload: trace.Ear, Seed: 1, Refs: 1000, LineSize: 64, Sampled: true, Sampler: DefaultSampler()},
	}
	seen := map[string]bool{base.key(): true}
	for _, v := range variants {
		if seen[v.key()] {
			t.Errorf("spec %+v collides with an earlier key %q", v, v.key())
		}
		seen[v.key()] = true
	}
}

func TestCurveCacheMemoizes(t *testing.T) {
	cc := NewCurveCache(0, 0)
	spec := Spec{Workload: trace.Ear, Seed: 1, Refs: 5000, LineSize: 64}
	collected := 0
	refs := func(context.Context) []trace.Ref {
		collected++
		return trace.Collect(trace.MustWorkload(spec.Workload, spec.Seed), spec.Refs)
	}
	c1, shared, err := cc.Get(context.Background(), spec, refs)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("first Get reported shared")
	}
	c2, shared, err := cc.Get(context.Background(), spec, refs)
	if err != nil {
		t.Fatal(err)
	}
	if !shared {
		t.Fatal("second Get did not hit the memo")
	}
	if c1 != c2 {
		t.Fatal("memo returned a different curve")
	}
	if collected != 1 {
		t.Fatalf("trace collected %d times, want once for the one miss", collected)
	}
	if cc.Len() != 1 {
		t.Fatalf("cache holds %d curves, want 1", cc.Len())
	}
	if _, _, err := cc.Get(context.Background(), Spec{Workload: "nope", Refs: 1, LineSize: 64}, refs); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if collected != 1 {
		t.Fatal("an invalid spec collected a trace")
	}
}

// TestPooledPassesMatchFreshTrees runs exact and sampled passes back
// to back through the index pool, over traces of every workload at
// three lengths and four line sizes, and holds each curve to one built
// on a fresh private tree. The small sampler budget forces SHARDS
// evictions, so remove runs on reused tables. The same passes then run
// from concurrent goroutines, which share the pool (go test -race
// checks them).
func TestPooledPassesMatchFreshTrees(t *testing.T) {
	type pass struct {
		refs    []trace.Ref
		line    int
		sampled bool
	}
	sampler := SamplerConfig{Rate: 0.5, Budget: 256}
	var passes []pass
	for i, name := range trace.Workloads() {
		for j, n := range []int{20_000, 700, 6_000} {
			refs := trace.Collect(trace.MustWorkload(name, uint64(11+i)), n)
			for k, line := range []int{16, 128, 32, 64} {
				passes = append(passes, pass{refs, line, (i+j+k)%3 == 0})
			}
		}
	}
	evicted := false
	fresh := make([]*Curve, len(passes))
	for i, ps := range passes {
		if ps.sampled {
			p := freshSampledProfiler(t, ps.line, sampler)
			for _, r := range ps.refs {
				p.Access(r.Addr)
			}
			fresh[i] = p.Curve()
			evicted = evicted || fresh[i].Rate < sampler.Rate
			continue
		}
		p := freshProfiler(t, ps.line)
		for _, r := range ps.refs {
			p.Access(r.Addr)
		}
		fresh[i] = p.Curve()
	}
	if !evicted {
		t.Fatal("no sampled pass evicted a block: remove never ran")
	}
	pooled := func(i int) error {
		ps := passes[i]
		var c *Curve
		var err error
		if ps.sampled {
			c, err = ProfileSampledRefs(ps.refs, ps.line, sampler)
		} else {
			c, err = ProfileRefs(ps.refs, ps.line)
		}
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(c, fresh[i]) {
			return fmt.Errorf("pass %d (%d refs, %d B lines, sampled %v): pooled curve differs from a fresh tree's",
				i, len(ps.refs), ps.line, ps.sampled)
		}
		return nil
	}
	for i := range passes {
		if err := pooled(i); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(passes); i += goroutines {
				if err := pooled((i + len(passes)/2) % len(passes)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOversizedIndexDropped pins the drop rule: an index a pass over
// many blocks grew is pooled after that pass, but after a pass over
// few blocks it is more than oversize times what that pass needed, so
// release drops it instead of pooling it.
func TestOversizedIndexDropped(t *testing.T) {
	big := trace.Collect(trace.MustWorkload(trace.Wave5, 1), 40_000) // 20,000 blocks at 16 B lines
	small := trace.Collect(trace.MustWorkload(trace.Ear, 1), 100)
	ix := &passIndex{tree: newStackTree()}
	ix.profile(big, 16)
	if ix.oversized() {
		t.Fatalf("a %d-cell table is oversized for the %d blocks that grew it", len(ix.tree.table), ix.tree.blocks())
	}
	ix.tree.reset()
	ix.profile(small, 128)
	if !ix.oversized() {
		t.Fatalf("a %d-cell table is not oversized for %d blocks (want more than %d× %d cells)",
			len(ix.tree.table), ix.tree.blocks(), oversize, cellsFor(ix.tree.blocks()))
	}
	ix.release()
	for i := 0; i < 8; i++ {
		if got, _ := indexPool.Get().(*passIndex); got == ix {
			t.Fatal("release pooled an oversized index")
		}
	}
}
