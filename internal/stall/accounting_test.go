package stall

import (
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/trace"
)

// TestBusWaitNotDoubleCounted is the regression test for the bus-busy
// accounting bug: the onFill bus-busy branch advances the replay clock,
// so its charge must land in the clock-advancing BusWait counter.
// Charging it to FlushStall — which result() re-adds to the clock as a
// purely additive term — counted the same cycles twice in Cycles.
//
// The branch is driven directly (white box) because it needs a fill
// scheduled on a still-busy bus.
func TestBusWaitNotDoubleCounted(t *testing.T) {
	mem := memory.MustNew(memory.Config{BetaM: 10, BusWidth: 4})
	c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2})
	e := engine{
		cfg: Config{
			Cache:   cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2},
			Memory:  memory.Config{BetaM: 10, BusWidth: 4},
			Feature: BNL1,
		},
		mem: mem,
		L:   32,
		D:   4,
	}
	// One instruction executed, bus reserved for 40 more cycles by
	// earlier traffic: the blocking fill waits 40 cycles for the bus,
	// then βm = 10 for its critical word.
	e.cur, e.res.E, e.started, e.busBusyUntil = 1, 1, true, 41
	out := c.Access(0x1000, false)
	e.onFill(trace.Ref{Instr: 0, Addr: 0x1000, Size: 4}, out.Writeback)
	e.stats = c.Stats()
	res := e.result()

	if res.BusWait != 40 {
		t.Fatalf("bus wait %d, want 40", res.BusWait)
	}
	if res.FlushStall != 0 {
		t.Fatalf("bus-busy wait leaked into FlushStall: %d", res.FlushStall)
	}
	// Exactness: 1 base cycle + 40 bus wait + 10 critical-word stall.
	if want := int64(1 + 40 + 10); res.Cycles != want {
		t.Fatalf("cycles %d, want %d (bus wait double-counted?)", res.Cycles, want)
	}
	if sum := res.BaseCycles + res.FillStall + res.BusWait + res.FlushStall + res.WriteStall + res.BufferFull + res.Conflict; res.Cycles != sum {
		t.Fatalf("cycles %d != decomposition %d", res.Cycles, sum)
	}
}

// TestEmptyTraceZeroResult is the regression test for the phantom
// instruction: a zero-reference replay used to report E = 1 and
// BaseCycles = 1.
func TestEmptyTraceZeroResult(t *testing.T) {
	for _, refs := range [][]trace.Ref{nil, {}} {
		res, err := Run(fig1Config(FS, 10), refs)
		if err != nil {
			t.Fatal(err)
		}
		if res != (Result{}) {
			t.Fatalf("empty trace produced non-zero result: %+v", res)
		}
	}
}

// TestHighAddressOffsets is the regression test for the sign-truncated
// line offset: int(r.Addr) % L is negative for addresses with the top
// int bit set, which fed ChunkReady a negative chunk and produced
// arrival times before the fill started. Offsets within a line depend
// only on the low address bits, so a trace shifted to the top of the
// address space must measure exactly like its low-address twin.
func TestHighAddressOffsets(t *testing.T) {
	const hi = uint64(1) << 63
	lo := refs(
		[3]uint64{0, 0x1000, 0},      // miss, critical chunk 0
		[3]uint64{2, 0x1000 + 28, 0}, // same line, last chunk: not yet arrived
		[3]uint64{40, 0x2000 + 12, 1},
		[3]uint64{44, 0x2000 + 16, 0},
	)
	shifted := make([]trace.Ref, len(lo))
	for i, r := range lo {
		r.Addr += hi
		shifted[i] = r
	}
	for _, order := range []memory.FillOrder{memory.RequestedFirst, memory.Sequential} {
		for _, f := range Features() {
			cfg := fig1Config(f, 10)
			cfg.Memory.Order = order
			a, err := Run(cfg, lo)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg, shifted)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%v/%v: high-address result differs from low-address twin:\nlow  %+v\nhigh %+v", f, order, a, b)
			}
			if b.FillStall < 0 || b.Cycles < b.BaseCycles {
				t.Fatalf("%v/%v: negative accounting at high addresses: %+v", f, order, b)
			}
		}
	}
}
