package cache

import (
	"testing"
	"testing/quick"

	"tradeoff/internal/trace"
)

func cfg8K() Config {
	return Config{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteMiss: WriteAllocate, Replacement: LRU}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid 8K 2-way", cfg8K(), true},
		{"valid direct-mapped", Config{Size: 1024, LineSize: 16, Assoc: 1}, true},
		{"valid fully associative", Config{Size: 1024, LineSize: 16, Assoc: 0}, true},
		{"size not power of two", Config{Size: 1000, LineSize: 16, Assoc: 1}, false},
		{"zero size", Config{Size: 0, LineSize: 16, Assoc: 1}, false},
		{"line not power of two", Config{Size: 1024, LineSize: 24, Assoc: 1}, false},
		{"line bigger than cache", Config{Size: 64, LineSize: 128, Assoc: 1}, false},
		{"negative assoc", Config{Size: 1024, LineSize: 16, Assoc: -1}, false},
		{"assoc exceeds lines", Config{Size: 64, LineSize: 32, Assoc: 4}, false},
		{"lines not divisible by assoc", Config{Size: 512, LineSize: 32, Assoc: 3}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{Size: 3}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{Size: 3})
}

func TestSets(t *testing.T) {
	if got := cfg8K().Sets(); got != 128 {
		t.Fatalf("8K/32B/2-way sets = %d, want 128", got)
	}
	full := Config{Size: 1024, LineSize: 32, Assoc: 0}
	if got := full.Sets(); got != 1 {
		t.Fatalf("fully associative sets = %d, want 1", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(cfg8K())
	out := c.Access(0x1000, false)
	if out.Hit || !out.Fill {
		t.Fatalf("first access: %+v, want miss+fill", out)
	}
	out = c.Access(0x1000, false)
	if !out.Hit {
		t.Fatalf("second access: %+v, want hit", out)
	}
	// Same line, different word: still a hit.
	out = c.Access(0x101F, false)
	if !out.Hit {
		t.Fatalf("same-line access: %+v, want hit", out)
	}
	// Next line: miss.
	out = c.Access(0x1020, false)
	if out.Hit {
		t.Fatalf("next-line access: %+v, want miss", out)
	}
}

func TestWriteAllocateFetchesLine(t *testing.T) {
	c := MustNew(cfg8K())
	out := c.Access(0x2000, true)
	if out.Hit || !out.Fill || out.Bypassed {
		t.Fatalf("write miss under write-allocate: %+v, want fill", out)
	}
	if !c.Dirty(0x2000) {
		t.Fatal("written line not dirty")
	}
	s := c.Stats()
	if s.WriteMiss != 1 || s.Fills != 1 || s.Bypasses != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestWriteAroundBypasses(t *testing.T) {
	cfg := cfg8K()
	cfg.WriteMiss = WriteAround
	c := MustNew(cfg)
	out := c.Access(0x2000, true)
	if !out.Bypassed || out.Fill {
		t.Fatalf("write miss under write-around: %+v, want bypass without fill", out)
	}
	if c.Contains(0x2000) {
		t.Fatal("write-around allocated a line")
	}
	// A write hit must still update in place.
	c.Access(0x3000, false) // fill via read
	out = c.Access(0x3000, true)
	if !out.Hit {
		t.Fatalf("write hit: %+v", out)
	}
	if !c.Dirty(0x3000) {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// Direct-mapped, 2 lines, line 32B: addresses 0 and 64 conflict.
	c := MustNew(Config{Size: 64, LineSize: 32, Assoc: 1})
	c.Access(0, true) // dirty line 0 (set 0)
	out := c.Access(64, false)
	if !out.Fill || !out.Writeback {
		t.Fatalf("conflicting fill over dirty line: %+v, want writeback", out)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
	// Evicting a clean line must not write back.
	out = c.Access(128, false)
	if out.Writeback {
		t.Fatalf("clean eviction wrote back: %+v", out)
	}
}

func TestLRUReplacement(t *testing.T) {
	// One set, 2 ways (fully associative 2-line cache).
	c := MustNew(Config{Size: 64, LineSize: 32, Assoc: 0, Replacement: LRU})
	c.Access(0, false)   // A
	c.Access(100, false) // B (line 3)
	c.Access(0, false)   // touch A: B is now LRU
	c.Access(200, false) // C evicts B
	if !c.Contains(0) {
		t.Fatal("LRU evicted the recently used line")
	}
	if c.Contains(100) {
		t.Fatal("LRU kept the least recently used line")
	}
}

func TestFIFOReplacement(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 32, Assoc: 0, Replacement: FIFO})
	c.Access(0, false)   // A first in
	c.Access(100, false) // B
	c.Access(0, false)   // touching A must NOT save it under FIFO
	c.Access(200, false) // C evicts A (first in)
	if c.Contains(0) {
		t.Fatal("FIFO kept the first-in line after a touch")
	}
	if !c.Contains(100) {
		t.Fatal("FIFO evicted the wrong line")
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	c := MustNew(Config{Size: 128, LineSize: 32, Assoc: 2, Replacement: Random, Seed: 7})
	// Fill both ways of set 0 (lines 0 and 2 map to set 0 of 2 sets).
	c.Access(0, false)
	c.Access(128, false)
	c.Access(256, false) // forces a random eviction in set 0
	// Exactly one of the two originals survives.
	a, b := c.Contains(0), c.Contains(128)
	if a == b {
		t.Fatalf("random eviction: contains(0)=%v contains(128)=%v, want exactly one", a, b)
	}
	if !c.Contains(256) {
		t.Fatal("newly filled line missing")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := MustNew(cfg8K())
	c.Access(0, false) // read miss
	c.Access(0, false) // read hit
	c.Access(0, true)  // write hit
	c.Access(64, true) // write miss (allocate)
	c.Access(128, false)
	s := c.Stats()
	if s.Reads != 3 || s.Writes != 2 {
		t.Fatalf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	if s.ReadHits != 1 || s.WriteHits != 1 || s.ReadMiss != 2 || s.WriteMiss != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Accesses() != 5 || s.Hits() != 2 || s.Misses() != 3 {
		t.Fatalf("derived stats wrong: %+v", s)
	}
	if hr := s.HitRatio(); hr != 0.4 {
		t.Fatalf("hit ratio %v, want 0.4", hr)
	}
	if mr := s.MissRatio(); mr != 0.6 {
		t.Fatalf("miss ratio %v, want 0.6", mr)
	}
}

func TestEmptyStatsRatios(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.MissRatio() != 0 || s.FlushRatio() != 0 {
		t.Fatalf("empty stats ratios non-zero: %+v", s)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := MustNew(cfg8K())
	c.Access(0x500, false)
	c.ResetStats()
	if got := c.Stats().Accesses(); got != 0 {
		t.Fatalf("stats not cleared: %d accesses", got)
	}
	if !c.Contains(0x500) {
		t.Fatal("ResetStats dropped cache contents")
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := MustNew(cfg8K())
	c.Access(0x500, true)
	c.Reset()
	if c.Contains(0x500) || c.ValidLines() != 0 || c.Stats().Accesses() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestFlushAll(t *testing.T) {
	c := MustNew(cfg8K())
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	n := c.FlushAll()
	if n != 2 {
		t.Fatalf("FlushAll flushed %d lines, want 2", n)
	}
	if c.ValidLines() != 0 {
		t.Fatal("FlushAll left valid lines")
	}
	if got := c.Stats().Writebacks; got != 2 {
		t.Fatalf("writebacks after FlushAll = %d, want 2", got)
	}
}

func TestHitRatioGrowsWithCacheSize(t *testing.T) {
	refs := trace.Collect(trace.MustProgram(trace.Doduc, 3), 200000)
	var prev float64
	for _, size := range []int{1 << 10, 8 << 10, 64 << 10} {
		cfg := cfg8K()
		cfg.Size = size
		hr := Measure(MustNew(cfg), refs).HitRatio
		if hr < prev {
			t.Fatalf("hit ratio fell to %v when growing the cache to %d bytes, from %v", hr, size, prev)
		}
		prev = hr
	}
	// doduc's pointer-chase pool exceeds 64K, so the ceiling is modest.
	if prev < 0.7 {
		t.Fatalf("64K cache hit ratio %.3f unexpectedly low", prev)
	}
}

func TestLargerLinesHelpSequential(t *testing.T) {
	// For a unit-stride sweep, larger lines must cut the miss ratio
	// roughly in proportion (the premise of the paper's §5.4).
	refs := trace.Collect(trace.Sequential(trace.SequentialConfig{
		Seed: 1, Base: 0, Length: 1 << 20, Stride: 8, ElemSize: 8}), 100000)
	lines := []int{8, 16, 32, 64}
	hrs := make([]float64, len(lines))
	for i, line := range lines {
		hrs[i] = Measure(MustNew(Config{Size: 8 << 10, LineSize: line, Assoc: 2}), refs).HitRatio
		if i > 0 && hrs[i] <= hrs[i-1] {
			t.Fatalf("line %d hit ratio %.4f not above line %d's %.4f", line, hrs[i], lines[i-1], hrs[i-1])
		}
	}
}

func TestMeasureProfile(t *testing.T) {
	c := MustNew(cfg8K())
	refs := trace.Collect(trace.MustProgram(trace.Swm256, 5), 100000)
	p := Measure(c, refs)
	if p.E == 0 || p.Refs != 100000 {
		t.Fatalf("profile E=%d refs=%d", p.E, p.Refs)
	}
	if p.R == 0 || p.R%32 != 0 {
		t.Fatalf("R = %d, want positive multiple of line size", p.R)
	}
	if p.W != 0 {
		t.Fatalf("W = %d under write-allocate, want 0", p.W)
	}
	if p.HitRatio <= 0.5 || p.HitRatio >= 1 {
		t.Fatalf("hit ratio %.3f out of plausible range", p.HitRatio)
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		t.Fatalf("alpha %.3f out of [0,1]", p.Alpha)
	}
	// Eq. (1): Λm = R/L + W under write-allocate.
	if want := p.R/32 + p.W; p.Misses != want {
		t.Fatalf("Λm = %d, want R/L + W = %d", p.Misses, want)
	}
}

func TestMeasureEmptyTrace(t *testing.T) {
	c := MustNew(cfg8K())
	p := Measure(c, nil)
	if p.E != 0 || p.R != 0 || p.Refs != 0 {
		t.Fatalf("empty trace profile: %+v", p)
	}
}

func TestMeasureSource(t *testing.T) {
	c := MustNew(cfg8K())
	p := MeasureSource(c, trace.MustProgram(trace.Ear, 1), 50000)
	if p.Refs != 50000 {
		t.Fatalf("refs = %d, want 50000", p.Refs)
	}
}

func TestWriteAroundWCount(t *testing.T) {
	cfg := cfg8K()
	cfg.WriteMiss = WriteAround
	c := MustNew(cfg)
	refs := trace.Collect(trace.MustProgram(trace.Doduc, 2), 100000)
	p := Measure(c, refs)
	if p.W == 0 {
		t.Fatal("write-around run recorded no bypassed writes")
	}
	if want := p.R/32 + p.W; p.Misses != want {
		t.Fatalf("Λm = %d, want R/L + W = %d (Eq. 1)", p.Misses, want)
	}
}

func TestPolicyStrings(t *testing.T) {
	if WriteAllocate.String() != "write-allocate" || WriteAround.String() != "write-around" {
		t.Fatal("WriteMissPolicy.String wrong")
	}
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Fatal("Replacement.String wrong")
	}
	if WriteMissPolicy(9).String() == "" || Replacement(9).String() == "" {
		t.Fatal("unknown enum String empty")
	}
}

func TestAccessInvariantsQuick(t *testing.T) {
	// Property: for any access sequence, hits+misses == accesses,
	// fills >= writebacks is NOT required, but writebacks <= fills holds
	// because a writeback only happens on a fill in this design; and a
	// second access to the same address under write-allocate always hits.
	f := func(addrs []uint16, writes []bool) bool {
		c := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: 2})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if !c.Contains(uint64(a)) {
				return false // write-allocate must leave the line resident
			}
		}
		s := c.Stats()
		return s.Hits()+s.Misses() == s.Accesses() && s.Writebacks <= s.Fills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidLinesNeverExceedCapacity(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNew(Config{Size: 512, LineSize: 32, Assoc: 4})
		for _, a := range addrs {
			c.Access(uint64(a), false)
		}
		return c.ValidLines() <= 512/32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEq1MissAccountingQuick(t *testing.T) {
	// Property (Eq. 1): under write-allocate Λm == Fills; under
	// write-around Λm == Fills + Bypasses.
	f := func(addrs []uint16, writes []bool, around bool) bool {
		cfg := Config{Size: 1 << 10, LineSize: 16, Assoc: 2}
		if around {
			cfg.WriteMiss = WriteAround
		}
		c := MustNew(cfg)
		for i, a := range addrs {
			c.Access(uint64(a), i < len(writes) && writes[i])
		}
		s := c.Stats()
		return s.Misses() == s.Fills+s.Bypasses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThroughHit(t *testing.T) {
	cfg := cfg8K()
	cfg.Write = WriteThrough
	c := MustNew(cfg)
	c.Access(0x100, false) // fill clean
	out := c.Access(0x100, true)
	if !out.Hit || !out.Through {
		t.Fatalf("write-through hit: %+v", out)
	}
	if c.Dirty(0x100) {
		t.Fatal("write-through marked the line dirty")
	}
	if got := c.Stats().Throughs; got != 1 {
		t.Fatalf("throughs = %d, want 1", got)
	}
}

func TestWriteThroughAllocateMiss(t *testing.T) {
	cfg := cfg8K()
	cfg.Write = WriteThrough
	c := MustNew(cfg)
	out := c.Access(0x200, true)
	if !out.Fill || !out.Through {
		t.Fatalf("write-through allocate miss: %+v", out)
	}
	if c.Dirty(0x200) {
		t.Fatal("write-through allocated a dirty line")
	}
}

func TestWriteThroughNeverWritesBack(t *testing.T) {
	cfg := Config{Size: 64, LineSize: 32, Assoc: 1, Write: WriteThrough}
	c := MustNew(cfg)
	c.Access(0, true)
	out := c.Access(64, false) // conflicting fill over the written line
	if out.Writeback {
		t.Fatalf("write-through evicted with writeback: %+v", out)
	}
	if got := c.Stats().Writebacks; got != 0 {
		t.Fatalf("writebacks = %d, want 0", got)
	}
}

func TestTrafficAccounting(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 32, Assoc: 1})
	c.Access(0, true)   // fill 32B
	c.Access(64, false) // fill 32B + writeback 32B
	if got := c.Stats().Traffic(32, 4); got != 96 {
		t.Fatalf("write-back traffic = %d, want 96", got)
	}
	wt := MustNew(Config{Size: 64, LineSize: 32, Assoc: 1, Write: WriteThrough})
	wt.Access(0, true)   // fill 32 + through 4
	wt.Access(0, true)   // through 4
	wt.Access(64, false) // fill 32, no writeback
	if got := wt.Stats().Traffic(32, 4); got != 72 {
		t.Fatalf("write-through traffic = %d, want 72", got)
	}
}

func TestWriteThroughVsWriteBackTrafficCrossover(t *testing.T) {
	// The classic Goodman-style result: which write policy moves less
	// bus traffic depends on stores-per-dirty-line vs L/D. A
	// high-reuse workload re-writes cached lines (write-back coalesces
	// them into one flush); a streaming workload dirties each line a
	// few times before eviction (write-through's word-sized stores win).
	traffic := func(refs []trace.Ref, size int, wp WritePolicy) uint64 {
		c := MustNew(Config{Size: size, LineSize: 32, Assoc: 2, Write: wp})
		for _, r := range refs {
			c.Access(r.Addr, r.Write)
		}
		return c.Stats().Traffic(32, 4)
	}
	reuse := trace.Collect(trace.ZipfReuse(trace.ZipfReuseConfig{
		Seed: 7, Lines: 65536, Theta: 1.5, WriteFrac: 0.3}), 100000)
	if wb, wt := traffic(reuse, 32<<10, WriteBack), traffic(reuse, 32<<10, WriteThrough); wb >= wt {
		t.Fatalf("high-reuse: write-back traffic %d not below write-through %d", wb, wt)
	}
	stream := trace.Collect(trace.MustProgram(trace.Swm256, 13), 100000)
	if wb, wt := traffic(stream, 8<<10, WriteBack), traffic(stream, 8<<10, WriteThrough); wt >= wb {
		t.Fatalf("streaming: write-through traffic %d not below write-back %d", wt, wb)
	}
}

func TestWritePolicyString(t *testing.T) {
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Fatal("WritePolicy strings wrong")
	}
	if WritePolicy(5).String() != "WritePolicy(5)" {
		t.Fatal("unknown WritePolicy string wrong")
	}
}

func TestPrefetchNextLine(t *testing.T) {
	cfg := cfg8K()
	cfg.Prefetch = true
	c := MustNew(cfg)
	out := c.Access(0x1000, false) // miss: fills 0x1000 line and prefetches 0x1020
	if !out.Fill {
		t.Fatalf("demand miss outcome: %+v", out)
	}
	if !c.Contains(0x1020) {
		t.Fatal("next line not prefetched")
	}
	// Demand use of the prefetched line: a hit that counts PrefetchHits.
	out = c.Access(0x1020, false)
	if !out.Hit {
		t.Fatalf("prefetched line access: %+v, want hit", out)
	}
	s := c.Stats()
	if s.PrefetchFills != 1 || s.PrefetchHits != 1 {
		t.Fatalf("prefetch stats %+v", s)
	}
	// Re-access must not count another prefetch hit.
	c.Access(0x1020, false)
	if got := c.Stats().PrefetchHits; got != 1 {
		t.Fatalf("prefetch hits = %d after reuse, want 1", got)
	}
}

func TestPrefetchDoesNotCascade(t *testing.T) {
	cfg := cfg8K()
	cfg.Prefetch = true
	c := MustNew(cfg)
	c.Access(0x1000, false)
	if c.Contains(0x1040) {
		t.Fatal("prefetch cascaded to line+2")
	}
}

func TestPrefetchAlreadyResidentIsFree(t *testing.T) {
	cfg := cfg8K()
	cfg.Prefetch = true
	c := MustNew(cfg)
	c.Access(0x1020, false) // residentize the would-be prefetch target
	before := c.Stats().PrefetchFills
	c.Access(0x1000, false) // miss; its prefetch target is already there
	if got := c.Stats().PrefetchFills - before; got != 0 {
		t.Fatalf("prefetch fills delta = %d, want 0 (target already resident)", got)
	}
}

func TestPrefetchCutsSequentialMisses(t *testing.T) {
	// On a unit-stride sweep, next-line prefetch must roughly halve
	// demand misses (every other line arrives speculatively).
	refs := trace.Collect(trace.Sequential(trace.SequentialConfig{
		Seed: 1, Base: 0, Length: 1 << 20, Stride: 8, ElemSize: 8}), 100000)
	plain := MustNew(cfg8K())
	cfgP := cfg8K()
	cfgP.Prefetch = true
	pf := MustNew(cfgP)
	for _, r := range refs {
		plain.Access(r.Addr, r.Write)
		pf.Access(r.Addr, r.Write)
	}
	mPlain, mPf := plain.Stats().Misses(), pf.Stats().Misses()
	if mPf >= mPlain {
		t.Fatalf("prefetch did not cut misses: %d vs %d", mPf, mPlain)
	}
	ratio := float64(mPf) / float64(mPlain)
	if ratio > 0.65 {
		t.Fatalf("prefetch cut misses only to %.2f of baseline, want ≈0.5 on unit stride", ratio)
	}
	// Traffic must not drop: speculative lines still cross the bus.
	if pf.Stats().Traffic(32, 4) < plain.Stats().Traffic(32, 4) {
		t.Fatal("prefetch reduced traffic, which is impossible")
	}
}

func TestPrefetchPollutionOnRandomWorkload(t *testing.T) {
	// On a low-spatial-locality workload, next-line prefetch wastes
	// traffic: prefetch fills arrive but few are used.
	refs := trace.Collect(trace.WorkingSet(trace.WorkingSetConfig{
		Seed: 2, Base: 0, SetBytes: 256 << 10, HeapBytes: 1 << 22, Migrate: 0.001, ElemSize: 8}), 80000)
	cfgP := cfg8K()
	cfgP.Prefetch = true
	c := MustNew(cfgP)
	for _, r := range refs {
		c.Access(r.Addr, r.Write)
	}
	s := c.Stats()
	if s.PrefetchFills == 0 {
		t.Fatal("no prefetches issued")
	}
	accuracy := float64(s.PrefetchHits) / float64(s.PrefetchFills)
	if accuracy > 0.5 {
		t.Fatalf("prefetch accuracy %.2f on a random workload — generator locality too strong", accuracy)
	}
}
