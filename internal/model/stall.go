package model

import (
	"context"
	"math"

	"tradeoff/internal/cache"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

// EstimateStall prices one stall-grid point — cfg over refs
// references of the named workload's trace at seed — without replaying
// the trace: the hit ratio comes from the analytic curve, and the
// stall decomposition from first-order timing arithmetic over the
// memory model's fill schedule. It admits exactly the configurations a
// replay admits: cfg must pass stall.Config.Validate, the checks
// cache.New and memory.New make, and fails with the same errors. The
// estimate prices a stall grid's caches (LRU, write-back, no
// prefetch); cfg.MSHRs does not enter it. cc may be nil (the curve is
// then built privately).
//
// The estimate is deliberately coarser than the hit-ratio tier — it
// is the grid-screening answer, not the measurement:
//
//   - FillStall: per-miss stall by feature. FS waits the whole
//     lineTime (φ = L/D exactly, the paper's Table 2 identity). The
//     partially-stalling features wait βm for the critical chunk and
//     then gamble on the shadow — the lineTime − βm the fill engine
//     stays busy. A later reference blocks inside the shadow if it
//     touches the filling line (probability p0, the consecutive-ref
//     same-line mass derived per generator from the trace spec) or
//     misses itself (probability 1 − h: the refill engine is busy,
//     so the new fill serializes behind the old one — with the
//     streaming workloads' miss rates this, not same-line reuse, is
//     the dominant term). With pBlock the per-reference blocking
//     probability and references arriving every ḡ cycles, a miss
//     eats qB·S of its shadow, where qB = 1 − (1−pBlock)^(shadow/ḡ)
//     is the chance anything blocks during the fill and
//     S = shadow − min(shadow/2, ḡ/pBlock) discounts the expected
//     arrival time. BL always waits out the shadow (next ref blocks
//     unconditionally); BNL1 waits qB·S; BNL2 0.95·qB·S (the needed
//     chunk has sometimes arrived); BNL3 0.8·qB·S (per-word waits);
//     NB qB·(βm + 0.8·S) (nothing waits unless something blocks,
//     then the critical latency is exposed too). The 0.95/0.8
//     factors are calibrated against replay, like the hit-ratio
//     epsilon budgets.
//   - BusWait, BufferFull, Conflict: estimated as zero — they need
//     reference-level timing interleaving this tier abstracts away.
//     (The fill-serialization wait above lands in FillStall, where
//     the replay also books it.)
//   - FlushStall: misses × lineTime × P(victim dirty), with
//     P(dirty) = 1 − (1−wf)^a for write fraction wf and a = 1/(1−h)
//     references per line lifetime. With write buffers the same
//     cycles land in HiddenFlush instead (buffers assumed deep
//     enough — BufferFull is already estimated as zero).
//   - Write-around: write misses bypass the cache (βm each, additive
//     WriteStall), and the fill count drops to the read share.
//
// Validation against replay over the default grid shows φ within
// 0.16·(L/D) absolute and Cycles within the hit-ratio tier's
// miss-count error amplified by the stall share; FS/BL φ are
// near-exact. The measured budgets are documented in DESIGN.md §5.8
// and pinned by TestEstimateStall (epsStallPhi, stallCycleBudget).
func EstimateStall(ctx context.Context, workload string, seed uint64, refs int, cfg stall.Config, cc *Cache) (stall.Result, error) {
	if err := cfg.Validate(); err != nil {
		return stall.Result{}, err
	}
	lineBytes, busBytes := cfg.Cache.LineSize, cfg.Memory.BusWidth
	cSpec := Spec{Workload: workload, Seed: seed, Refs: refs, LineSize: lineBytes}
	var curve interface {
		HitRatioAssoc(int, int) float64
	}
	if cc != nil {
		c, _, err := cc.Get(ctx, cSpec)
		if err != nil {
			return stall.Result{}, err
		}
		curve = c
	} else {
		if err := cSpec.Validate(); err != nil {
			return stall.Result{}, err
		}
		c, err := CurveFor(cSpec)
		if err != nil {
			return stall.Result{}, err
		}
		curve = c
	}

	n := float64(refs)
	h := curve.HitRatioAssoc(cfg.Cache.Size, cfg.Cache.Assoc)
	tr, err := workloadTraits(workload, seed, lineBytes)
	if err != nil {
		return stall.Result{}, err
	}
	gbar, wf := tr.gbar, tr.wf
	if gbar < 1 {
		gbar = 1
	}
	// Same-line touch probability. The Zipf share is conditioned on
	// the miss: misses come from the tail, whose lines are re-touched
	// at roughly the miss rate times the collision mass.
	p0 := tr.p0 + tr.zipfPSame*(1-h)

	// Fill timing from the memory model's schedule (memory.Fill):
	// critical chunk after βm, whole line after lineTime.
	k := lineBytes / busBytes
	if k < 1 {
		k = 1
	}
	betaM := float64(cfg.Memory.BetaM)
	lineTime := float64(k) * betaM
	if cfg.Memory.Pipelined {
		lineTime = betaM + float64(cfg.Memory.Q)*float64(k-1)
	}
	crit := betaM
	shadow := math.Max(0, lineTime-crit)
	missRate := 1 - h

	// Fill-window blocking: qB = P(any ref blocks during the shadow),
	// S = the shadow share the blocked miss actually waits out.
	pBlock := 1 - (1-p0)*(1-missRate)
	var qB, S float64
	if pBlock > 1e-12 && shadow > 0 {
		m := shadow / gbar // references issued during the shadow
		qB = -math.Expm1(m * math.Log1p(-math.Min(pBlock, 0.999999)))
		S = shadow - math.Min(shadow/2, gbar/pBlock)
	}

	var perMiss float64
	switch cfg.Feature {
	case stall.FS:
		perMiss = lineTime
	case stall.BL:
		perMiss = crit + math.Max(0, shadow-gbar)
	case stall.BNL1:
		perMiss = crit + qB*S
	case stall.BNL2:
		perMiss = crit + 0.95*qB*S
	case stall.BNL3:
		perMiss = crit + 0.8*qB*S
	case stall.NB:
		perMiss = qB * (crit + 0.8*S)
	}
	fills := n * missRate
	var writeStall float64
	if cfg.Cache.WriteMiss == cache.WriteAround {
		// Write misses bypass: one memory cycle each, additive; only
		// read misses fetch lines.
		writeStall = wf * n * missRate * betaM
		fills = (1 - wf) * n * missRate
	}

	// Dirty-victim flushes: a line written at least once during its
	// a = 1/(1−h) reference lifetime flushes on eviction.
	var dirty float64
	if missRate > 1e-9 && wf > 0 {
		life := math.Min(1/missRate, n)
		dirty = -math.Expm1(life * math.Log1p(-math.Min(wf, 0.999999)))
	}
	flushCycles := fills * dirty * lineTime

	res := stall.Result{
		Refs:       uint64(refs),
		Misses:     uint64(math.Round(fills)),
		E:          uint64(math.Round(n * gbar)),
		FillStall:  int64(math.Round(fills * perMiss)),
		WriteStall: int64(math.Round(writeStall)),
	}
	res.BaseCycles = int64(res.E)
	if cfg.WriteBufferDepth > 0 {
		res.HiddenFlush = int64(math.Round(flushCycles))
	} else {
		res.FlushStall = int64(math.Round(flushCycles))
	}
	res.Cycles = res.BaseCycles + res.FillStall + res.FlushStall + res.WriteStall
	if res.Misses > 0 {
		res.Phi = float64(res.FillStall) / (float64(res.Misses) * betaM)
	}
	res.PhiFraction = res.Phi / (float64(lineBytes) / float64(busBytes))
	res.Traffic = uint64(math.Round(fills*float64(lineBytes) +
		fills*dirty*float64(lineBytes) +
		wf*n*missRate*float64(busBytes)))
	return res, nil
}

// traits are the stall tier's workload summary statistics.
type traits struct {
	gbar float64 // mean instructions (≈ cycles) between references
	wf   float64 // store fraction
	// p0 is the consecutive-reference same-line probability of the
	// non-Zipf components; zipfPSame is the Zipf components' raw
	// same-unit collision mass (Σ p_i²), which the caller conditions
	// on the miss rate before adding in.
	p0        float64
	zipfPSame float64
}

// workloadTraits derives a named workload's traits from its
// trace.Spec — the same normalized configs the generators run with,
// so the traits cannot drift from the emitted streams. The same-line
// probability p0 is per generator family: a sequential walk revisits
// a line for L/stride consecutive refs, a stencil revisits a row's
// line one window later, a working set re-draws uniformly, a pointer
// chase reads the missed node's other fields.
func workloadTraits(workload string, seed uint64, lineBytes int) (traits, error) {
	spec, err := trace.SpecFor(workload, seed)
	if err != nil {
		return traits{}, err
	}
	L := float64(lineBytes)
	totalW := 0.0
	for _, c := range spec.Components {
		totalW += c.Weight
	}
	if totalW == 0 {
		totalW = 1
	}
	var tr traits
	for _, c := range spec.Components {
		w := c.Weight / totalW
		var g, f, p float64
		switch c.Kind {
		case trace.KindSequential:
			g, f = c.Seq.GapMean, c.Seq.WriteFrac
			p = math.Max(0, 1-float64(c.Seq.Stride)/L)
		case trace.KindStencil2D:
			g = c.Sten.GapMean
			window := float64(c.Sten.Points)
			if c.Sten.WriteBack {
				window++
				f = 1 / window
			}
			// A row's line is revisited at the next column, one
			// window of refs later.
			p = math.Max(0, 1-float64(c.Sten.ElemSize)/L) / window
		case trace.KindWorkingSet:
			g, f = c.WS.GapMean, c.WS.WriteFrac
			p = math.Min(1, L/float64(c.WS.SetBytes))
		case trace.KindPointerChase:
			g = c.PC.GapMean // pointer chases only load
			p = math.Min(1, L/float64(c.PC.NodeSize))
		case trace.KindZipf:
			g, f = c.ZipfC.GapMean, c.ZipfC.WriteFrac
			tr.zipfPSame += w * zipfSameUnitProb(*c.ZipfC)
		}
		tr.gbar += w * g
		tr.wf += w * f
		tr.p0 += w * p
	}
	// Multi-component workloads interleave through trace.Mix, which
	// re-stamps the first reference of each burst with a uniform 1–4
	// instruction gap (mean 2.5).
	if len(spec.Components) > 1 {
		burst := float64(spec.Burst)
		if burst < 1 {
			burst = 1
		}
		tr.gbar = tr.gbar*(burst-1)/burst + 2.5/burst
	}
	return tr, nil
}
