package stall

import (
	"math"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/trace"
)

// fig1Config is the paper's Figure 1 design point: 8 KB two-way
// write-allocate cache, 32-byte lines, 4-byte bus.
func fig1Config(feature Feature, betaM int64) Config {
	return Config{
		Cache:   cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteMiss: cache.WriteAllocate, Replacement: cache.LRU},
		Memory:  memory.Config{BetaM: betaM, BusWidth: 4},
		Feature: feature,
	}
}

// refs builds a hand-written trace: tuples of (instr, addr, write).
func refs(t ...[3]uint64) []trace.Ref {
	out := make([]trace.Ref, len(t))
	for i, x := range t {
		out[i] = trace.Ref{Instr: x[0], Addr: x[1], Size: 4, Write: x[2] == 1}
	}
	return out
}

func TestFSPhiIsExactlyLOverD(t *testing.T) {
	// Property of Eq. (2): a full-stalling cache has φ = L/D exactly,
	// for any trace and any βm.
	for _, betaM := range []int64{2, 5, 20} {
		tr := trace.Collect(trace.MustProgram(trace.Swm256, 1), 50000)
		res, err := Run(fig1Config(FS, betaM), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Phi, 32.0/4.0; math.Abs(got-want) > 1e-9 {
			t.Fatalf("βm=%d: FS φ = %v, want exactly %v", betaM, got, want)
		}
		if math.Abs(res.PhiFraction-1) > 1e-9 {
			t.Fatalf("FS φ fraction = %v, want 1", res.PhiFraction)
		}
	}
}

func TestSingleMissCriticalWordStall(t *testing.T) {
	// One miss, no second access: BL/BNL/NB resume on the critical
	// word, so the fill stall is exactly βm (φ contribution 1).
	for _, f := range []Feature{BL, BNL1, BNL2, BNL3} {
		res, err := Run(fig1Config(f, 10), refs([3]uint64{0, 0x1000, 0}))
		if err != nil {
			t.Fatal(err)
		}
		if res.FillStall != 10 {
			t.Fatalf("%v: fill stall %d, want 10 (one βm)", f, res.FillStall)
		}
		if res.Phi != 1 {
			t.Fatalf("%v: φ = %v, want 1", f, res.Phi)
		}
	}
}

func TestNBMissDoesNotStall(t *testing.T) {
	res, err := Run(fig1Config(NB, 10), refs([3]uint64{0, 0x1000, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.FillStall != 0 {
		t.Fatalf("NB single miss stalled %d cycles, want 0", res.FillStall)
	}
	if res.Phi != 0 {
		t.Fatalf("NB φ = %v, want 0 (Table 2 minimum)", res.Phi)
	}
}

func TestBLStallsAnyAccessDuringFill(t *testing.T) {
	// Miss at instr 0 on line A; hit to an unrelated (pre-filled) line
	// B two instructions later must wait for the whole fill under BL.
	//
	// Timeline (βm=10, L/D=8): miss issues at cycle 1 (after 1 instr),
	// fill completes 80 cycles later. CPU resumes at critical +10.
	// Second access at +2 instructions stalls until fill completion.
	tr := refs(
		[3]uint64{0, 0x2000, 0},   // prefill line B (fill long done by instr 100)
		[3]uint64{100, 0x1000, 0}, // miss on line A
		[3]uint64{102, 0x2000, 0}, // hit on B during A's fill: BL stalls
	)
	bl, err := Run(fig1Config(BL, 10), tr)
	if err != nil {
		t.Fatal(err)
	}
	bnl1, err := Run(fig1Config(BNL1, 10), tr)
	if err != nil {
		t.Fatal(err)
	}
	if bl.FillStall <= bnl1.FillStall {
		t.Fatalf("BL stall %d not above BNL1 stall %d for other-line hit", bl.FillStall, bnl1.FillStall)
	}
	// BNL1 must not add stall beyond the two critical-word waits.
	if bnl1.FillStall != 2*10 {
		t.Fatalf("BNL1 stall %d, want 20 (two critical words)", bnl1.FillStall)
	}
	// BL second-access stall: fill complete - (resume+2 instr).
	// fill starts when miss issues; complete = start + 80; CPU resumed
	// at start+10, ran 2 instructions, so waits 80-10-2 = 68 extra.
	if want := int64(10 + 68 + 10); bl.FillStall != want {
		t.Fatalf("BL stall %d, want %d", bl.FillStall, want)
	}
}

func TestBNL1SameLineSecondAccessEq8(t *testing.T) {
	// Eq. (8): a second access to the missing line ΔC instructions
	// after resumption stalls max{(L/D−1)βm − ΔC, 0}.
	const betaM = 10
	const dc = 13
	tr := refs(
		[3]uint64{0, 0x1000, 0},      // miss; resume after βm
		[3]uint64{dc, 0x1000 + 4, 0}, // same line, ΔC instructions later
	)
	res, err := Run(fig1Config(BNL1, betaM), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(betaM) + (8-1)*betaM - dc // critical + Eq.(8) term
	if res.FillStall != want {
		t.Fatalf("BNL1 fill stall %d, want %d", res.FillStall, want)
	}
	// Far-away second access: no extra stall.
	tr2 := refs(
		[3]uint64{0, 0x1000, 0},
		[3]uint64{200, 0x1000 + 4, 0},
	)
	res2, err := Run(fig1Config(BNL1, betaM), tr2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FillStall != betaM {
		t.Fatalf("distant second access stalled: %d, want %d", res2.FillStall, betaM)
	}
}

func TestBNL2ArrivedPartProceeds(t *testing.T) {
	// Critical word is chunk 0. A quick second access to chunk 0 (already
	// arrived) proceeds under BNL2 but a not-yet-arrived chunk stalls to
	// fill completion.
	const betaM = 10
	arrived := refs(
		[3]uint64{0, 0x1000, 0},     // miss, critical chunk 0
		[3]uint64{2, 0x1000 + 2, 0}, // same chunk: arrived already
	)
	res, err := Run(fig1Config(BNL2, betaM), arrived)
	if err != nil {
		t.Fatal(err)
	}
	if res.FillStall != betaM {
		t.Fatalf("BNL2 stall on arrived chunk: %d, want %d", res.FillStall, betaM)
	}
	notArrived := refs(
		[3]uint64{0, 0x1000, 0},
		[3]uint64{2, 0x1000 + 28, 0}, // last chunk: not arrived
	)
	res2, err := Run(fig1Config(BNL2, betaM), notArrived)
	if err != nil {
		t.Fatal(err)
	}
	// BNL2 stalls until the ENTIRE line is fetched.
	// Resume at 10; 2 instructions; wait (8*10 - 10 - 2) = 68 more.
	if want := int64(betaM + 68); res2.FillStall != want {
		t.Fatalf("BNL2 stall on pending chunk: %d, want %d", res2.FillStall, want)
	}
}

func TestBNL3WaitsOnlyForItsWord(t *testing.T) {
	const betaM = 10
	tr := refs(
		[3]uint64{0, 0x1000, 0},
		[3]uint64{2, 0x1000 + 4, 0}, // chunk 1: second to arrive
	)
	res, err := Run(fig1Config(BNL3, betaM), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 1 arrives at fillStart+2βm; CPU arrives at fillStart+βm+2.
	// Extra wait = 2βm − βm − 2 = 8.
	if want := int64(betaM + 8); res.FillStall != want {
		t.Fatalf("BNL3 stall %d, want %d", res.FillStall, want)
	}
}

func TestSecondMissWaitsForOutstandingFill(t *testing.T) {
	// Two back-to-back misses: the second waits for the first fill to
	// complete under all partially-stalling features (§4.2).
	const betaM = 10
	tr := refs(
		[3]uint64{0, 0x1000, 0},
		[3]uint64{2, 0x4000, 0},
	)
	for _, f := range []Feature{BL, BNL1, BNL2, BNL3, NB} {
		res, err := Run(fig1Config(f, betaM), tr)
		if err != nil {
			t.Fatal(err)
		}
		// First: critical wait βm (except NB: 0). Second: waits until
		// first completes (80−10−2 = 68 after resume; NB: 80-0-2... the
		// NB CPU continued at fill start, so waits 78), plus its own
		// critical wait βm (except NB).
		var want int64
		switch f {
		case NB:
			want = 78
		default:
			want = betaM + 68 + betaM
		}
		if res.FillStall != want {
			t.Fatalf("%v: stall %d, want %d", f, res.FillStall, want)
		}
	}
}

func TestFlushStallWithoutBuffer(t *testing.T) {
	// Direct-mapped 64-byte cache (2 lines): dirty a line, then force
	// its eviction. Without write buffers the CPU pays (L/D)βm for the
	// flush (the α(R/D)βm term of Eq. (2)).
	cfg := Config{
		Cache:   cache.Config{Size: 64, LineSize: 32, Assoc: 1},
		Memory:  memory.Config{BetaM: 10, BusWidth: 4},
		Feature: FS,
	}
	tr := refs(
		[3]uint64{0, 0, 1},  // write-allocate fill, line now dirty
		[3]uint64{5, 64, 0}, // conflicting read: fill + flush
	)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * 10); res.FlushStall != want {
		t.Fatalf("flush stall %d, want %d", res.FlushStall, want)
	}
	if res.HiddenFlush != 0 {
		t.Fatalf("hidden flush %d without a buffer", res.HiddenFlush)
	}
}

func TestWriteBufferHidesFlush(t *testing.T) {
	cfg := Config{
		Cache:            cache.Config{Size: 64, LineSize: 32, Assoc: 1},
		Memory:           memory.Config{BetaM: 10, BusWidth: 4},
		Feature:          FS,
		WriteBufferDepth: 4,
	}
	tr := refs(
		[3]uint64{0, 0, 1},
		[3]uint64{5, 64, 0},
	)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlushStall != 0 {
		t.Fatalf("flush stall %d with buffer, want 0", res.FlushStall)
	}
	if want := int64(80); res.HiddenFlush != want {
		t.Fatalf("hidden flush %d, want %d", res.HiddenFlush, want)
	}
	// Total time must be lower than the unbuffered run.
	unbuf := cfg
	unbuf.WriteBufferDepth = 0
	res2, err := Run(unbuf, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles >= res2.Cycles {
		t.Fatalf("buffered run %d cycles not faster than unbuffered %d", res.Cycles, res2.Cycles)
	}
}

func TestWriteAroundStallNoBuffer(t *testing.T) {
	cfg := fig1Config(FS, 10)
	cfg.Cache.WriteMiss = cache.WriteAround
	tr := refs([3]uint64{0, 0x1000, 1}) // write miss: bypass, one βm
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteStall != 10 {
		t.Fatalf("write-around stall %d, want 10", res.WriteStall)
	}
	if res.Misses != 0 {
		t.Fatalf("write-around counted %d fills", res.Misses)
	}
}

func TestWriteAroundBufferedNoStall(t *testing.T) {
	cfg := fig1Config(FS, 10)
	cfg.Cache.WriteMiss = cache.WriteAround
	cfg.WriteBufferDepth = 2
	tr := refs([3]uint64{0, 0x1000, 1})
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteStall != 0 || res.HiddenFlush != 10 {
		t.Fatalf("buffered write-around: writeStall=%d hidden=%d", res.WriteStall, res.HiddenFlush)
	}
}

func TestBufferFullStalls(t *testing.T) {
	cfg := fig1Config(FS, 10)
	cfg.Cache.WriteMiss = cache.WriteAround
	cfg.WriteBufferDepth = 1
	// Two immediate write-around stores: the second finds the buffer
	// full and waits for the first to drain.
	tr := refs(
		[3]uint64{0, 0x1000, 1},
		[3]uint64{1, 0x2000, 1},
	)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferFull == 0 {
		t.Fatal("depth-1 buffer never reported full")
	}
}

func TestReadConflictWithBufferedWrite(t *testing.T) {
	cfg := fig1Config(FS, 10)
	cfg.Cache.WriteMiss = cache.WriteAround
	cfg.WriteBufferDepth = 4
	// Buffer a store to line X, then immediately read-miss line X:
	// the fill must wait for the buffered store to drain.
	tr := refs(
		[3]uint64{0, 0x1000, 1},
		[3]uint64{1, 0x1000, 0},
	)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflict == 0 {
		t.Fatal("read of a buffered line reported no conflict stall")
	}
}

func TestRejectsNonMonotonicTrace(t *testing.T) {
	tr := refs(
		[3]uint64{5, 0x1000, 0},
		[3]uint64{5, 0x2000, 0},
	)
	if _, err := Run(fig1Config(FS, 4), tr); err == nil {
		t.Fatal("duplicate instruction index accepted")
	}
}

func TestRejectsBadConfigs(t *testing.T) {
	cfg := fig1Config(FS, 4)
	cfg.Cache.Size = 3
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("bad cache config accepted")
	}
	cfg = fig1Config(FS, 4)
	cfg.Memory.BusWidth = 5
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("bad memory config accepted")
	}
}

func TestPhiOrderingAcrossFeatures(t *testing.T) {
	// On a real workload the features must order by stall severity:
	// NB ≤ BNL3 ≤ BNL2 ≤ BNL1 ≤ BL ≤ FS = L/D, with all partially
	// stalling φ ≥ 1 (Table 2 bounds).
	tr := trace.Collect(trace.MustProgram(trace.Swm256, 3), 100000)
	phi := map[Feature]float64{}
	for _, f := range Features() {
		res, err := Run(fig1Config(f, 10), tr)
		if err != nil {
			t.Fatal(err)
		}
		phi[f] = res.Phi
	}
	order := Features() // FS, BL, BNL1, BNL2, BNL3, NB
	for i := 1; i < len(order); i++ {
		hi, lo := order[i-1], order[i]
		if phi[lo] > phi[hi]+1e-9 {
			t.Fatalf("φ(%v)=%.3f exceeds φ(%v)=%.3f", lo, phi[lo], hi, phi[hi])
		}
	}
	for _, f := range PartialFeatures() {
		if phi[f] < 1 {
			t.Fatalf("φ(%v)=%.3f below Table 2 minimum of 1", f, phi[f])
		}
		if phi[f] > 8+1e-9 {
			t.Fatalf("φ(%v)=%.3f above Table 2 maximum L/D=8", f, phi[f])
		}
	}
	if phi[NB] < 0 {
		t.Fatalf("φ(NB)=%.3f negative", phi[NB])
	}
}

func TestPhiGrowsWithMemoryCycle(t *testing.T) {
	// Figure 1: "a longer memory latency has more stalling occurrences"
	// — the φ fraction for BNL1 must not shrink as βm grows.
	tr := trace.Collect(trace.MustProgram(trace.Nasa7, 2), 100000)
	var prev float64 = -1
	for _, betaM := range []int64{2, 10, 30} {
		res, err := Run(fig1Config(BNL1, betaM), tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.PhiFraction < prev-0.02 { // small tolerance for sampling noise
			t.Fatalf("βm=%d: BNL1 φ fraction %.3f fell below previous %.3f", betaM, res.PhiFraction, prev)
		}
		prev = res.PhiFraction
	}
}

func TestAverageResults(t *testing.T) {
	names := trace.Programs()
	results := make([]Result, len(names))
	for i, name := range names {
		res, err := RunSource(fig1Config(BNL3, 10), trace.MustProgram(name, 1), 20000)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	per, avg := AverageResults(names, results)
	if len(per) != 6 {
		t.Fatalf("%d programs measured, want 6", len(per))
	}
	var sum float64
	for _, r := range per {
		sum += r.Phi
	}
	if want := sum / 6; math.Abs(avg.Phi-want) > 1e-9 {
		t.Fatalf("avg φ %.4f, want %.4f", avg.Phi, want)
	}
}

func TestFeatureString(t *testing.T) {
	want := map[Feature]string{FS: "FS", BL: "BL", BNL1: "BNL1", BNL2: "BNL2", BNL3: "BNL3", NB: "NB"}
	for f, s := range want {
		if f.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(f), f.String(), s)
		}
	}
	if Feature(42).String() != "Feature(42)" {
		t.Fatal("unknown feature String wrong")
	}
}

func TestCyclesDecomposition(t *testing.T) {
	// Total cycles == base instruction cycles + all exposed stalls.
	tr := trace.Collect(trace.MustProgram(trace.Hydro2D, 4), 50000)
	for _, f := range Features() {
		res, err := Run(fig1Config(f, 10), tr)
		if err != nil {
			t.Fatal(err)
		}
		sum := res.BaseCycles + res.FillStall + res.BusWait + res.FlushStall + res.WriteStall + res.BufferFull + res.Conflict
		if res.Cycles != sum {
			t.Fatalf("%v: cycles %d != decomposition %d", f, res.Cycles, sum)
		}
	}
}

func TestRunWarmExcludesWarmup(t *testing.T) {
	cfg := fig1Config(BNL1, 10)
	c := cache.MustNew(cfg.Cache)
	warm := trace.Collect(trace.MustProgram(trace.Ear, 9), 50000)
	for _, r := range warm {
		c.Access(r.Addr, r.Write)
	}
	c.ResetStats()
	res, err := RunWarm(cfg, c, trace.Collect(trace.MustProgram(trace.Ear, 9), 50000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Fatal("warm run measured no misses at all")
	}
}

func TestRunWarmRejectsMismatchedLineSize(t *testing.T) {
	cfg := fig1Config(FS, 4)
	c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 2})
	if _, err := RunWarm(cfg, c, nil); err == nil {
		t.Fatal("mismatched line size accepted")
	}
}
