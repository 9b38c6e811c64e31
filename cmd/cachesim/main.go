// Command cachesim runs the trace-driven cache and stall simulator on
// a built-in workload model or a trace file, and reports the
// application profile {E, R, W, α, hit ratio} of the paper's Table 1
// plus, when a stalling feature is selected, the measured stalling
// factor φ and the bus traffic.
//
// Usage:
//
//	cachesim [-program nasa7] [-refs 400000] [-seed 1]
//	         [-replay file [-dinero]]
//	         [-size 8192] [-line 32] [-assoc 2] [-write allocate|around]
//	         [-levels "size:assoc:line,..."]
//	         [-feature FS|BL|BNL1|BNL2|BNL3|NB] [-beta 10] [-bus 4]
//	         [-wbuf 0] [-workers 0] [-trace out.json]
//
// -feature also accepts a comma-separated list or "all"; the listed
// features share one cache pass over the trace, replay their timing
// concurrently on a simjob worker pool (-workers) and report as a
// comparison table.
//
// -levels appends deeper cache levels below the L1 the -size/-line/
// -assoc flags describe and replays the trace through the resulting
// hierarchy, reporting each level's local and global hit ratio. Each
// comma-separated level is size:assoc:line (assoc 0 = fully
// associative; sizes take an optional K or M suffix), e.g.
//
//	cachesim -program ear -levels "64K:4:32,256K:8:64"
//
// Levels must not shrink: each level's size and line must be at least
// its upper neighbor's. -levels is a profiling mode and combines with
// -feature only when -feature is empty (the stall features model an
// L1-only system).
//
// Replay files use cmd/tracegen's text format (instr addr size R|W),
// or the classic Dinero format (label hex-address) with -dinero.
// (Before the observability work this flag was called -trace; it was
// renamed so -trace means the same thing on every CLI.)
//
// -trace writes a Chrome trace_event JSON profile of the run (one
// "sim_job" span for the features' one shared cache pass and one
// "sim_replay" span per replayed feature under it, laned by worker
// slot) — load it at chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/obs"
	"tradeoff/internal/simjob"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

func main() {
	var (
		program = flag.String("program", "nasa7", "workload model: nasa7, swm256, wave5, ear, doduc, hydro2d")
		tfile   = flag.String("replay", "", "replay a trace file instead of a workload model (tracegen format, or Dinero with -dinero)")
		dinero  = flag.Bool("dinero", false, "treat -trace as classic Dinero format (label hex-address)")
		refs    = flag.Int("refs", 400_000, "memory references to replay")
		seed    = flag.Uint64("seed", 1, "trace seed")
		size    = flag.Int("size", 8<<10, "cache size in bytes")
		line    = flag.Int("line", 32, "line size in bytes")
		assoc   = flag.Int("assoc", 2, "associativity (0 = fully associative)")
		write   = flag.String("write", "allocate", "write-miss policy: allocate or around")
		levels  = flag.String("levels", "", `deeper cache levels below L1, "size:assoc:line,..." (profiling mode)`)
		feature = flag.String("feature", "", "stalling feature(s) to measure: one name, a comma list, or \"all\" (empty = profile only)")
		beta    = flag.Int64("beta", 10, "memory cycle time per bus transfer")
		bus     = flag.Int("bus", 4, "bus width in bytes")
		wdepth  = flag.Int("wbuf", 0, "write buffer depth (0 = none)")
		workers = flag.Int("workers", 0, "worker pool size for multi-feature replay (0 = all CPUs)")
		tpath   = flag.String("trace", "", "write a Chrome trace_event JSON profile of the run")
	)
	flag.Parse()
	if err := run(input{program: *program, traceFile: *tfile, dinero: *dinero},
		*refs, *seed, *size, *line, *assoc, *write, *levels, *feature, *beta, *bus, *wdepth, *workers, *tpath); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

// input selects the reference stream: a built-in workload model or a
// trace file (native or Dinero format).
type input struct {
	program   string
	traceFile string
	dinero    bool
}

// load produces up to nrefs references from the selected input.
func (in input) load(nrefs int, seed uint64) ([]trace.Ref, error) {
	if in.traceFile == "" {
		src, err := trace.NewProgram(in.program, seed)
		if err != nil {
			return nil, err
		}
		return trace.Collect(src, nrefs), nil
	}
	f, err := os.Open(in.traceFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var refs []trace.Ref
	if in.dinero {
		refs, err = trace.ParseDinero(f)
	} else {
		refs, err = trace.Parse(f)
	}
	if err != nil {
		return nil, err
	}
	if len(refs) > nrefs {
		refs = refs[:nrefs]
	}
	return refs, nil
}

func (in input) name() string {
	if in.traceFile != "" {
		return in.traceFile
	}
	return in.program
}

func run(in input, nrefs int, seed uint64, size, line, assoc int, write, levels, feature string, beta int64, bus, wdepth, workers int, tracePath string) error {
	var wp cache.WriteMissPolicy
	switch write {
	case "allocate":
		wp = cache.WriteAllocate
	case "around":
		wp = cache.WriteAround
	default:
		return fmt.Errorf("unknown write policy %q", write)
	}
	ccfg := cache.Config{Size: size, LineSize: line, Assoc: assoc, WriteMiss: wp}
	refs, err := in.load(nrefs, seed)
	if err != nil {
		return err
	}

	if levels != "" {
		if feature != "" {
			return fmt.Errorf("-levels is a profiling mode; drop -feature (the stall features model an L1-only system)")
		}
		deeper, err := parseLevels(levels)
		if err != nil {
			return err
		}
		return runHierarchy(in, ccfg, deeper, refs)
	}

	ctx := context.Background()
	var tracer *obs.Tracer
	if tracePath != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	writeTrace := func() error {
		if tracer == nil {
			return nil
		}
		return tracer.WriteFile(tracePath)
	}

	if feature == "" {
		c, err := cache.New(ccfg)
		if err != nil {
			return err
		}
		p := cache.Measure(c, refs)
		fmt.Printf("input:      %s (%d refs, %d instructions)\n", in.name(), p.Refs, p.E)
		fmt.Printf("cache:      %d bytes, %dB lines, %d-way, %s\n", size, line, assoc, wp)
		fmt.Printf("hit ratio:  %.4f\n", p.HitRatio)
		fmt.Printf("R:          %d bytes (Λm via Eq.1 = %d)\n", p.R, p.Misses)
		fmt.Printf("W:          %d write-around misses\n", p.W)
		fmt.Printf("alpha:      %.3f (paper's analytic default: 0.5)\n", p.Alpha)
		return writeTrace() // empty but well-formed: no replay pool ran
	}

	feats, err := parseFeatures(feature)
	if err != nil {
		return err
	}
	cfgs := make([]stall.Config, len(feats))
	for i, f := range feats {
		cfgs[i] = stall.Config{
			Cache:            ccfg,
			Memory:           memory.Config{BetaM: beta, BusWidth: bus},
			Feature:          f,
			WriteBufferDepth: wdepth,
		}
	}
	results, err := simjob.RunRefs(ctx, refs, cfgs, workers)
	if err != nil {
		return err
	}
	if err := writeTrace(); err != nil {
		return err
	}

	if len(feats) == 1 {
		feat, res := feats[0], results[0]
		fmt.Printf("input:        %s (%d refs, %d instructions)\n", in.name(), res.Refs, res.E)
		fmt.Printf("feature:      %s, beta_m=%d, D=%d, write buffer depth %d\n", feat, beta, bus, wdepth)
		fmt.Printf("cycles:       %d (base %d)\n", res.Cycles, res.BaseCycles)
		fmt.Printf("fill stall:   %d cycles over %d misses\n", res.FillStall, res.Misses)
		fmt.Printf("flush stall:  %d cycles (hidden: %d)\n", res.FlushStall, res.HiddenFlush)
		fmt.Printf("write stall:  %d cycles, buffer-full %d, conflicts %d\n", res.WriteStall, res.BufferFull, res.Conflict)
		fmt.Printf("phi:          %.3f (%.1f%% of L/D = %g)\n", res.Phi, 100*res.PhiFraction, float64(line)/float64(bus))
		fmt.Printf("bus traffic:  %d bytes (%.2f B/ref)\n", res.Traffic, float64(res.Traffic)/float64(res.Refs))
		return nil
	}

	fmt.Printf("input:    %s (%d refs, %d instructions)\n", in.name(), results[0].Refs, results[0].E)
	fmt.Printf("config:   beta_m=%d, D=%d, write buffer depth %d, L/D=%g\n", beta, bus, wdepth, float64(line)/float64(bus))
	fmt.Printf("%-6s %12s %12s %10s %12s %8s %8s\n",
		"feat", "cycles", "fill_stall", "bus_wait", "misses", "phi", "phi%")
	for i, f := range feats {
		res := results[i]
		fmt.Printf("%-6s %12d %12d %10d %12d %8.3f %7.1f%%\n",
			f, res.Cycles, res.FillStall, res.BusWait, res.Misses, res.Phi, 100*res.PhiFraction)
	}
	return nil
}

// parseLevels parses the -levels argument: comma-separated
// size:assoc:line triples, top level first, sizes with an optional
// K or M suffix.
func parseLevels(arg string) ([]cache.Config, error) {
	var cfgs []cache.Config
	for _, spec := range strings.Split(arg, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("level %q: want size:assoc:line", spec)
		}
		size, err := parseSize(parts[0])
		if err != nil {
			return nil, fmt.Errorf("level %q: %w", spec, err)
		}
		assoc, err := strconv.Atoi(parts[1])
		if err != nil || assoc < 0 {
			return nil, fmt.Errorf("level %q: bad associativity %q", spec, parts[1])
		}
		line, err := parseSize(parts[2])
		if err != nil {
			return nil, fmt.Errorf("level %q: %w", spec, err)
		}
		cfgs = append(cfgs, cache.Config{Size: size, LineSize: line, Assoc: assoc})
	}
	return cfgs, nil
}

// parseSize parses a byte count with an optional K or M suffix.
func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// runHierarchy replays the trace through the N-level hierarchy and
// reports each level's local and global hit ratio — the per-level
// currency the multi-level tradeoff prices.
func runHierarchy(in input, l1 cache.Config, deeper []cache.Config, refs []trace.Ref) error {
	cfgs := append([]cache.Config{l1}, deeper...)
	h, err := cache.NewHierarchy(cfgs...)
	if err != nil {
		return err
	}
	for _, r := range refs {
		h.Access(r.Addr, r.Write)
	}
	s := h.Stats()
	fmt.Printf("input:      %s (%d refs)\n", in.name(), s.Accesses)
	for i, c := range cfgs {
		assoc := "full"
		if c.Assoc > 0 {
			assoc = fmt.Sprintf("%d-way", c.Assoc)
		}
		fmt.Printf("L%d:         %d bytes, %dB lines, %s\n", i+1, c.Size, c.LineSize, assoc)
	}
	for i := range cfgs {
		fmt.Printf("L%d local:   %.4f (%d hits, %d dirty flushes)\n",
			i+1, s.LocalHitRatio(i), s.Levels[i].Hits, s.Levels[i].Flushes)
	}
	fmt.Printf("global:     %.4f (%d memory fills)\n", s.GlobalHitRatio(), s.MemFills)
	return nil
}

// parseFeatures expands the -feature argument: one name, a comma-
// separated list, or "all" for every Table 2 feature.
func parseFeatures(arg string) ([]stall.Feature, error) {
	if arg == "all" {
		return stall.Features(), nil
	}
	var feats []stall.Feature
	for _, name := range strings.Split(arg, ",") {
		f, err := stall.ParseFeature(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		feats = append(feats, f)
	}
	return feats, nil
}
