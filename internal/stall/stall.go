// Package stall measures processor stalling factors by cycle-level
// trace replay.
//
// The paper (Chen & Somani, ISCA '94, §3.2 and §4.2) distinguishes how a
// cache stalls the processor during a line fill:
//
//	FS    full stalling: wait for the whole line (φ = L/D)
//	BL    bus-locked: resume on the requested word, but any load/store
//	      during the rest of the fill waits for fill completion
//	BNL1  bus-not-locked: only accesses to the line being filled (or a
//	      new miss) wait for fill completion
//	BNL2  like BNL1, but an access to an already-arrived part of the
//	      line proceeds; otherwise it waits for full completion
//	BNL3  an access waits only until the word it needs arrives
//	NB    non-blocking: the missing access itself does not stall; later
//	      touches of the missing line wait for their word (φ ≥ 0)
//
// The stalling factor φ (Table 2, Eq. (8)) normalizes the measured
// fill-induced stall per miss by the memory cycle time βm, so that the
// execution-time model's read-miss term is (R/L)·φ·βm. A full-stalling
// cache yields φ = L/D exactly; Figure 1 reports φ/(L/D) percentages for
// the partially-stalling features, averaged over six SPEC92 programs.
//
// Per the paper's simulation assumptions (§4.2), instructions are
// single-cycle apart from memory stalls, and the instruction cache is
// effectively infinite.
//
// A replay has two halves. Simulate runs the trace through the cache
// once and records what each reference did; Replay charges the
// cycle-level timing from that record. The feature, βm, bus width and
// write buffers change only when the processor waits, never which
// references hit, fill or flush, so one Simulate serves every timing
// configuration of its trace and cache. Run is the two back to back.
package stall

import (
	"errors"
	"fmt"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/trace"
	"tradeoff/internal/wbuf"
)

// Feature identifies a processor stalling feature (Table 2).
type Feature int

const (
	FS Feature = iota
	BL
	BNL1
	BNL2
	BNL3
	NB
)

// Features lists all stalling features in Table 2 order.
func Features() []Feature { return []Feature{FS, BL, BNL1, BNL2, BNL3, NB} }

// PartialFeatures lists the partially-stalling features Figure 1 plots.
func PartialFeatures() []Feature { return []Feature{BL, BNL1, BNL2, BNL3} }

func (f Feature) String() string {
	switch f {
	case FS:
		return "FS"
	case BL:
		return "BL"
	case BNL1:
		return "BNL1"
	case BNL2:
		return "BNL2"
	case BNL3:
		return "BNL3"
	case NB:
		return "NB"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// ParseFeature maps a Table 2 feature name (FS, BL, BNL1, BNL2, BNL3,
// NB) onto its Feature, rejecting unknown names.
func ParseFeature(s string) (Feature, error) {
	for _, f := range Features() {
		if s == f.String() {
			return f, nil
		}
	}
	return 0, fmt.Errorf("stall: unknown stalling feature %q (want FS, BL, BNL1, BNL2, BNL3 or NB)", s)
}

// Config describes one stall-measurement design point.
type Config struct {
	Cache   cache.Config  // cache geometry and policies
	Memory  memory.Config // bus width D and memory cycle βm (and pipelining)
	Feature Feature       // stalling feature under test

	// WriteBufferDepth selects flush handling. 0 models no write
	// buffers: the CPU stalls (L/D)·βm per dirty-line flush and βm per
	// write-around store, exactly the α(R/D)βm and W·βm terms of
	// Eq. (2). A positive depth models read-bypassing write buffers of
	// that depth: flushes are posted after the fill and drain in bus
	// idle time; the CPU stalls only when the buffer is full or a read
	// miss conflicts with a buffered line.
	WriteBufferDepth int

	// MSHRs is the number of outstanding misses a non-blocking (NB)
	// cache supports — the paper's "mechanism for supporting multiple
	// load/store miss" (§5.3). 0 means 1. Ignored for the other
	// features, which block on their single outstanding fill; note the
	// non-pipelined bus still serializes overlapping fills.
	MSHRs int
}

// Result reports the measured timing decomposition of a replay.
//
// Two kinds of stall counter appear below. Clock-advancing counters
// (FillStall, BusWait, BufferFull, Conflict) moved the replay clock as
// they were charged, so they shift the timing of everything that
// follows. Additive counters (FlushStall, WriteStall) model the
// paper's purely additive Eq. (2) terms: they are accumulated without
// advancing the clock — so unrelated write traffic cannot perturb the
// fill-stall (φ) measurement — and are added to the clock once, at the
// end. Cycles is exactly BaseCycles plus all six stall counters.
type Result struct {
	Refs   uint64 `json:"refs"`   // memory references replayed
	Misses uint64 `json:"misses"` // load/store misses that fetched a line (Λm under write-allocate)
	E      uint64 `json:"e"`      // dynamic instruction count

	Cycles     int64 `json:"cycles"`      // total execution cycles X
	BaseCycles int64 `json:"base_cycles"` // cycles with a perfect memory system (one per instruction)

	FillStall   int64 `json:"fill_stall"`   // cycles stalled on line fills, incl. second-access stalls
	BusWait     int64 `json:"bus_wait"`     // cycles a blocking miss waited for the busy bus before its fill began
	FlushStall  int64 `json:"flush_stall"`  // cycles stalled on dirty-line copy-backs (exposed, additive)
	WriteStall  int64 `json:"write_stall"`  // cycles stalled on write-around stores (exposed, additive)
	HiddenFlush int64 `json:"hidden_flush"` // flush cycles absorbed by the write buffer
	BufferFull  int64 `json:"buffer_full"`  // cycles stalled because the write buffer was full
	Conflict    int64 `json:"conflict"`     // cycles stalled on read-after-buffered-write conflicts

	Phi         float64 `json:"phi"`          // stalling factor: FillStall / (Misses · βm)
	PhiFraction float64 `json:"phi_fraction"` // Phi normalized by its maximum L/D (Figure 1's y-axis)

	Traffic uint64 `json:"traffic"` // processor-memory bus traffic in bytes (fills, flushes, stores)
}

var errInstrOrder = errors.New("stall: trace instruction indices must be strictly increasing")

// Run replays refs through the configured cache/memory system and
// measures the stall decomposition. The cache is created fresh; use
// RunWarm to keep a warmed cache.
func Run(cfg Config, refs []trace.Ref) (Result, error) {
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return Result{}, err
	}
	return RunWarm(cfg, c, refs)
}

// RunWarm is Run with a caller-supplied (possibly pre-warmed) cache:
// Simulate over c, then Replay. The cache configuration must match
// cfg.Cache in line size.
func RunWarm(cfg Config, c *cache.Cache, refs []trace.Ref) (Result, error) {
	return Replay(cfg, Simulate(c, refs), refs)
}

// op is one reference's recorded cache outcome. The low two bits say
// what the access did; opThrough flags a write-through store, which
// also went to memory on a hit or a fill.
type op uint8

const (
	opHit       op = iota // the reference hit
	opAround              // a write-around store went straight to memory
	opFill                // a line fill whose victim (if any) was clean
	opFillDirty           // a line fill that flushed a dirty victim
	opKind      op = 3    // mask selecting one of the four above
	opThrough   op = 4    // flag: a write-through store also went to memory
)

// Outcomes is the cache pass of one trace through one cache: one op
// per reference and the cache's statistics after the pass. Which
// references hit, fill or flush depends only on the address stream and
// the cache, never on the stalling feature, bus width, βm or write
// buffers, so one Outcomes serves every timing configuration of its
// cache (see Replay).
type Outcomes struct {
	ops      []op
	lineSize int
	stats    cache.Stats
}

// Simulate runs refs through c once and records each reference's
// outcome: the cache half of a replay. c keeps the resulting state and
// statistics, as after any other run of accesses.
//
//perf:hot
func Simulate(c *cache.Cache, refs []trace.Ref) Outcomes {
	ops := make([]op, len(refs))
	for i, r := range refs {
		out := c.Access(r.Addr, r.Write)
		var o op
		switch {
		case out.Hit:
			o = opHit
		case out.Bypassed:
			o = opAround
		case out.Writeback:
			o = opFillDirty
		default:
			o = opFill
		}
		if out.Through {
			o |= opThrough
		}
		ops[i] = o
	}
	return Outcomes{ops: ops, lineSize: c.Config().LineSize, stats: c.Stats()}
}

// Replay is the timing half of a replay: it walks refs beside the
// outcomes Simulate recorded for them and measures the stall
// decomposition under cfg's feature, memory and write buffers. o must
// come from a cache with cfg's line size over exactly refs; Misses and
// Traffic are that cache pass's.
func Replay(cfg Config, o Outcomes, refs []trace.Ref) (Result, error) {
	mem, err := memory.New(cfg.Memory)
	if err != nil {
		return Result{}, err
	}
	if o.lineSize != cfg.Cache.LineSize {
		return Result{}, fmt.Errorf("stall: cache line size %d != config %d", o.lineSize, cfg.Cache.LineSize)
	}
	if len(o.ops) != len(refs) {
		return Result{}, fmt.Errorf("stall: %d recorded outcomes for %d references", len(o.ops), len(refs))
	}
	e := engine{
		cfg:   cfg,
		stats: o.stats,
		mem:   mem,
		L:     cfg.Cache.LineSize,
		D:     cfg.Memory.BusWidth,
	}
	if cfg.WriteBufferDepth > 0 {
		e.buf = wbuf.New(cfg.WriteBufferDepth)
	}
	if err := e.replay(o.ops, refs); err != nil {
		return Result{}, err
	}
	return e.result(), nil
}

// engine holds the replay state.
type engine struct {
	cfg   Config
	stats cache.Stats // the cache pass's statistics: Misses and Traffic
	mem   *memory.Model
	L, D  int

	cur       int64 // current cycle
	lastInstr uint64
	started   bool

	fills []memory.Fill // outstanding fills, oldest first (len > 1 only for NB with MSHRs > 1)

	busBusyUntil int64 // bus reserved by the in-flight fill (and sync flushes)

	// Read-bypassing write buffer (nil when WriteBufferDepth == 0).
	buf *wbuf.Buffer

	res Result
}

// replay processes the trace, refs[i] with its recorded outcome
// ops[i]. One iteration per reference: this loop is the timing
// model's entire runtime.
//
//perf:hot
func (e *engine) replay(ops []op, refs []trace.Ref) error {
	ops = ops[:len(refs)]
	for i, r := range refs {
		if e.started && r.Instr <= e.lastInstr {
			//lint:ignore hotalloc cold path: boxing happens once, on the malformed trace that aborts the replay
			return fmt.Errorf("%w (ref %d: %d after %d)", errInstrOrder, i, r.Instr, e.lastInstr)
		}
		// Instruction progress: one cycle per instruction since the
		// previous reference (the referencing instruction included).
		if !e.started {
			e.cur += int64(r.Instr) + 1
			e.started = true
		} else {
			e.cur += int64(r.Instr - e.lastInstr)
		}
		e.lastInstr = r.Instr
		e.retire()

		o := ops[i]
		switch o & opKind {
		case opHit:
			e.onHit(r)
		case opAround:
			e.onWriteAround(r)
		default:
			e.onFill(r, o&opKind == opFillDirty)
		}
		if o&opThrough != 0 {
			e.onThrough(r)
		}
		e.res.Refs++
	}
	// An empty trace executed nothing: leave E (and hence BaseCycles)
	// zero rather than claiming one phantom instruction.
	if e.started {
		e.res.E = e.lastInstr + 1
	}
	return nil
}

// retire drops outstanding fills that have completed by the current
// cycle, preserving age order. Runs once per reference.
//
//perf:hot
func (e *engine) retire() {
	n := 0
	for _, f := range e.fills {
		if e.cur < f.Complete() {
			e.fills[n] = f
			n++
		}
	}
	e.fills = e.fills[:n]
}

// mshrs returns the outstanding-miss capacity for the configuration.
func (e *engine) mshrs() int {
	if e.cfg.Feature == NB && e.cfg.MSHRs > 1 {
		return e.cfg.MSHRs
	}
	return 1
}

// stallFill advances time to at (if in the future) and charges the wait
// to fill stalls.
func (e *engine) stallFill(at int64) {
	if at > e.cur {
		e.res.FillStall += at - e.cur
		e.cur = at
	}
}

// onHit applies the feature-specific stall rules for an access that hit
// in the cache while a fill may be outstanding (§3.2). Runs once per
// hitting reference.
//
//perf:hot
func (e *engine) onHit(r trace.Ref) {
	if len(e.fills) == 0 {
		return
	}
	if e.cfg.Feature == BL {
		// Cache locked: every load/store waits for fill completion.
		e.stallFill(e.fills[0].Complete())
		e.retire()
		return
	}
	// Find the (at most one) outstanding fill of this line.
	var fill memory.Fill
	sameLine := false
	for _, f := range e.fills {
		if f.Line == r.Line(e.L) {
			fill, sameLine = f, true
			break
		}
	}
	if !sameLine {
		return
	}
	switch e.cfg.Feature {
	case FS:
		// Unreachable: FS never leaves a fill outstanding.
	case BNL1:
		e.stallFill(fill.Complete())
	case BNL2:
		if e.cur < fill.ByteReady(int(r.Addr%uint64(e.L)), e.D) {
			e.stallFill(fill.Complete())
		}
	case BNL3, NB:
		e.stallFill(fill.ByteReady(int(r.Addr%uint64(e.L)), e.D))
	}
	e.retire()
}

// onWriteAround handles a write-around store, which uses the external
// bus for one memory cycle (the W·βm term of Eq. (2)).
func (e *engine) onWriteAround(r trace.Ref) {
	if e.cfg.Feature == BL && len(e.fills) > 0 {
		e.stallFill(e.fills[0].Complete())
		e.retire()
	}
	betaM := e.cfg.Memory.BetaM
	if e.cfg.WriteBufferDepth > 0 {
		e.postWrite(r.Line(e.L), betaM)
		return
	}
	// Without buffers the store costs one memory cycle (the W·βm term
	// of Eq. (2)). The paper's model treats this as purely additive to
	// the execution time, so it is accumulated without advancing the
	// replay clock — advancing it would let unrelated write traffic
	// mask the fill stalls that define φ.
	e.res.WriteStall += betaM
}

// onThrough charges the bus cost of a write-through store: one memory
// cycle, buffered when write buffers are configured, otherwise
// accumulated additively like the write-around term.
func (e *engine) onThrough(r trace.Ref) {
	betaM := e.cfg.Memory.BetaM
	if e.cfg.WriteBufferDepth > 0 {
		e.postWrite(r.Line(e.L), betaM)
		return
	}
	e.res.WriteStall += betaM
}

// onFill handles a miss that fetches a line; writeback reports that
// the fill displaced a dirty victim.
func (e *engine) onFill(r trace.Ref, writeback bool) {
	// A new miss while the outstanding-miss capacity is exhausted waits
	// for the oldest line to arrive completely (all partially-stalling
	// features; §4.2: "the new miss is stalled until the previous
	// missed line is brought into the cache"). NB with spare MSHRs
	// proceeds without stalling.
	if len(e.fills) >= e.mshrs() {
		e.stallFill(e.fills[0].Complete())
		e.retire()
	}

	// Read-after-write conflict: the line being fetched must not be
	// sitting in the write buffer (stale memory copy).
	line := r.Line(e.L)
	e.drainConflicts(line)

	fillStart := e.cur
	if e.busBusyUntil > fillStart {
		// Bus still moving earlier data (an in-progress buffered flush
		// transfer, or — under NB with spare MSHRs — a previous fill).
		// Blocking features park the processor on the bus wait; a
		// non-blocking cache just schedules the fill for when the bus
		// frees and keeps executing. This wait advances the replay
		// clock, so it must be charged to the clock-advancing BusWait
		// counter — the additive FlushStall total is re-added to the
		// clock by result(), and charging it here would count the same
		// cycles twice.
		fillStart = e.busBusyUntil
		if e.cfg.Feature != NB {
			e.res.BusWait += fillStart - e.cur
			e.cur = fillStart
		}
	}

	critical := int(r.Addr%uint64(e.L)) / e.D
	fill := e.mem.NewFill(fillStart, line, e.L, critical)
	e.fills = append(e.fills, fill)
	e.busBusyUntil = fill.Complete()

	// The processor waits for the requested word (FS: the whole line).
	switch e.cfg.Feature {
	case FS:
		e.stallFill(fill.Complete())
		e.fills = e.fills[:len(e.fills)-1]
	case NB:
		// Non-blocking: the missing access itself does not stall.
	default:
		e.stallFill(fill.CriticalReady())
	}

	// Dirty-victim flush, posted after the missing line is filled
	// (§5.3). Without write buffers the CPU pays (L/D)·βm for it — the
	// α(R/D)βm term of Eq. (2) — accumulated additively, like the
	// write-around term above, so flush traffic does not perturb the
	// fill-stall (φ) measurement. With buffers it drains in bus idle
	// time and is hidden unless the buffer overruns.
	if writeback {
		flushTime := e.mem.LineTime(e.L)
		if e.cfg.WriteBufferDepth > 0 {
			e.postWrite(victimToken(line), flushTime)
		} else {
			e.res.FlushStall += flushTime
		}
	}
}

// victimToken derives a pseudo-identifier for a flushed victim line.
// The cache does not report the victim's address, so conflicts are
// tracked approximately; fills to the same line index as a buffered
// entry trigger the conflict path. Using the filled line's index is a
// conservative stand-in that preserves buffer-occupancy behaviour.
func victimToken(fillLine uint64) uint64 { return fillLine ^ 0x8000_0000_0000_0000 }

// postWrite queues a write of duration dur on the write buffer,
// charging any full-buffer wait. Buffered cycles count as hidden
// unless later exposed via BufferFull or Conflict stalls.
func (e *engine) postWrite(line uint64, dur int64) {
	stall := e.buf.Post(e.cur, e.busBusyUntil, line, dur)
	e.res.BufferFull += stall
	e.cur += stall
	e.res.HiddenFlush += dur
}

// drainConflicts forces buffered entries for line to drain before a
// fill of that line may start.
func (e *engine) drainConflicts(line uint64) {
	if e.buf == nil {
		return
	}
	stall := e.buf.ConflictWait(e.cur, e.busBusyUntil, line)
	e.res.Conflict += stall
	e.cur += stall
}

// result finalizes the measurement. FlushStall and WriteStall are the
// additive charges (see onFill/onWriteAround) that never advanced the
// replay clock, so the total cycle count adds them here exactly once;
// every other stall counter (FillStall, BusWait, BufferFull, Conflict)
// already advanced e.cur during the replay.
func (e *engine) result() Result {
	r := e.res
	r.Misses = e.stats.Fills
	r.Traffic = e.stats.Traffic(e.L, e.D)
	r.Cycles = e.cur + r.FlushStall + r.WriteStall
	r.BaseCycles = int64(r.E)
	betaM := e.cfg.Memory.BetaM
	if r.Misses > 0 && betaM > 0 {
		r.Phi = float64(r.FillStall) / (float64(r.Misses) * float64(betaM))
	}
	if maxPhi := float64(e.L) / float64(e.D); maxPhi > 0 {
		r.PhiFraction = r.Phi / maxPhi
	}
	return r
}
