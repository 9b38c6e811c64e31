package stall

import (
	"fmt"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/trace"
	"tradeoff/internal/wbuf"
)

// interleavedRun is the reference the split replay is held to: the
// replay as one loop, in which every reference accesses the cache and
// is charged its timing from the cache's own Outcome in the same
// iteration. Replay(cfg, Simulate(c, refs), refs) may move the cache
// access into a pass of its own, but must not change what any
// reference costs.
func interleavedRun(cfg Config, c *cache.Cache, refs []trace.Ref) (Result, error) {
	mem, err := memory.New(cfg.Memory)
	if err != nil {
		return Result{}, err
	}
	e := engine{cfg: cfg, mem: mem, L: cfg.Cache.LineSize, D: cfg.Memory.BusWidth}
	if cfg.WriteBufferDepth > 0 {
		e.buf = wbuf.New(cfg.WriteBufferDepth)
	}
	for i, r := range refs {
		if e.started && r.Instr <= e.lastInstr {
			return Result{}, fmt.Errorf("%w (ref %d: %d after %d)", errInstrOrder, i, r.Instr, e.lastInstr)
		}
		if !e.started {
			e.cur += int64(r.Instr) + 1
			e.started = true
		} else {
			e.cur += int64(r.Instr - e.lastInstr)
		}
		e.lastInstr = r.Instr
		e.retire()

		out := c.Access(r.Addr, r.Write)
		switch {
		case out.Hit:
			e.onHit(r)
		case out.Bypassed:
			e.onWriteAround(r)
		default:
			// The split replay derives the filled line from the
			// reference; the cache must agree.
			if out.FillLine != r.Line(e.L) {
				return Result{}, fmt.Errorf("ref %d: cache filled line %d, replay derives line %d", i, out.FillLine, r.Line(e.L))
			}
			e.onFill(r, out.Writeback)
		}
		if out.Through {
			e.onThrough(r)
		}
		e.res.Refs++
	}
	if e.started {
		e.res.E = e.lastInstr + 1
	}
	e.stats = c.Stats()
	return e.result(), nil
}

// oracleCache returns a fresh cache for cc, warmed by one pass over
// refs (statistics reset) when warm is set.
func oracleCache(cc cache.Config, refs []trace.Ref, warm bool) *cache.Cache {
	c := cache.MustNew(cc)
	if warm {
		for _, r := range refs {
			c.Access(r.Addr, r.Write)
		}
		c.ResetStats()
	}
	return c
}

// TestReplayMatchesInterleaved checks the split replay against the
// interleaved oracle field for field: all seven workloads, all six
// features, two memory cycle times, write-allocate and write-around,
// write-back and write-through, write-buffer depth 0 and 4, MSHRs 0
// and 4, prefetch off and on, from cold and warmed caches. A small
// cache keeps dirty evictions frequent on short traces.
func TestReplayMatchesInterleaved(t *testing.T) {
	const n = 1_000
	var caches []cache.Config
	for _, wm := range []cache.WriteMissPolicy{cache.WriteAllocate, cache.WriteAround} {
		for _, wp := range []cache.WritePolicy{cache.WriteBack, cache.WriteThrough} {
			for _, prefetch := range []bool{false, true} {
				caches = append(caches, cache.Config{
					Size: 2 << 10, LineSize: 32, Assoc: 2,
					Write: wp, WriteMiss: wm, Replacement: cache.LRU, Prefetch: prefetch,
				})
			}
		}
	}
	var seen [opKind + 1]int // outcome kinds recorded, to show none went untested
	through := 0
	for _, w := range trace.Workloads() {
		refs := trace.Collect(trace.MustWorkload(w, 11), n)
		for _, cc := range caches {
			for _, warm := range []bool{false, true} {
				o := Simulate(oracleCache(cc, refs, warm), refs)
				for _, x := range o.ops {
					seen[x&opKind]++
					if x&opThrough != 0 {
						through++
					}
				}
				for _, f := range Features() {
					for _, betaM := range []int64{2, 10} {
						for _, depth := range []int{0, 4} {
							for _, mshrs := range []int{0, 4} {
								cfg := Config{
									Cache:            cc,
									Memory:           memory.Config{BetaM: betaM, BusWidth: 4},
									Feature:          f,
									WriteBufferDepth: depth,
									MSHRs:            mshrs,
								}
								got, err := Replay(cfg, o, refs)
								if err != nil {
									t.Fatal(err)
								}
								want, err := interleavedRun(cfg, oracleCache(cc, refs, warm), refs)
								if err != nil {
									t.Fatal(err)
								}
								if got != want {
									t.Fatalf("%s warm=%v %+v:\nsplit       %+v\ninterleaved %+v", w, warm, cfg, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
	for k, count := range seen {
		if count == 0 {
			t.Errorf("no reference recorded outcome kind %d", k)
		}
	}
	if through == 0 {
		t.Error("no reference recorded a write-through store")
	}
}

// TestReplayRejectsMismatchedOutcomes checks Replay refuses outcomes
// recorded for another line size or another trace length.
func TestReplayRejectsMismatchedOutcomes(t *testing.T) {
	tr := refs([3]uint64{0, 0x1000, 0}, [3]uint64{3, 0x1004, 1})
	o := Simulate(cache.MustNew(fig1Config(FS, 10).Cache), tr)
	if _, err := Replay(fig1Config(FS, 10), o, tr); err != nil {
		t.Fatal(err)
	}
	cfg := fig1Config(FS, 10)
	cfg.Cache.LineSize = 64
	if _, err := Replay(cfg, o, tr); err == nil {
		t.Fatal("outcomes from a 32-byte-line cache replayed under 64-byte lines")
	}
	if _, err := Replay(fig1Config(FS, 10), o, tr[:1]); err == nil {
		t.Fatal("outcomes of two references replayed over one")
	}
}
