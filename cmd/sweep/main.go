// Command sweep explores a memory-system design space from a JSON
// configuration and emits one CSV row per design: hit ratio, mean
// memory delay per reference, chip area (rbe), package pins, and
// whether the design is Pareto-efficient in (delay, area, pins).
//
// Usage:
//
//	sweep -config space.json [-o designs.csv] [-workers N] [-trace out.json]
//	sweep -example          # print a commented example configuration
//
// Hit ratios come from the calibrated design-target surface ("model"),
// from cache simulation of a named workload ("sim:<name>", e.g.
// "sim:zipf" or "sim:nasa7"), or from a single-pass miss-ratio curve
// of that workload ("mrc:<name>" exact, "mrc~:<name>" SHARDS-sampled;
// see internal/mrc): one reuse-distance pass per line size answers
// every cache size in the grid, so big grids cost O(refs + points)
// instead of O(refs × points). "mrc_rate" and "mrc_budget" tune the
// sampled variant.
//
// The sweep itself lives in internal/sweep and runs on a worker pool
// (default runtime.NumCPU(); -workers 1 forces a serial sweep). Output
// ordering is deterministic regardless of parallelism. The same engine
// backs the tradeoffd HTTP service.
//
// -trace writes a Chrome trace_event JSON profile of the run (one
// "sweep_point" span per evaluated (cache size, line size) geometry —
// bus width does not change a hit ratio, so each geometry is evaluated
// once and priced at every bus width — laned by worker slot, plus one
// "sim_pass" or "mrc_pass" span per trace pass, one per line size,
// under the sim and mrc sources) — load it at
// chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"tradeoff/internal/obs"
	"tradeoff/internal/sweep"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON design-space configuration")
		out        = flag.String("o", "-", "output CSV ('-' = stdout)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = all CPUs, 1 = serial)")
		example    = flag.Bool("example", false, "print an example configuration and exit")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON profile of the run")
	)
	flag.Parse()
	if *example {
		fmt.Println(sweep.ExampleConfig)
		return
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "sweep: -config is required (see -example)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *configPath, *out, *workers, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, configPath, outPath string, workers int, tracePath string) error {
	data, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	cfg, err := sweep.ParseConfig(data)
	if err != nil {
		return fmt.Errorf("%s: %w", configPath, err)
	}

	var tracer *obs.Tracer
	if tracePath != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	designs, err := sweep.Run(ctx, cfg, workers)
	if err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.WriteFile(tracePath); err != nil {
			return err
		}
	}

	var w io.Writer = os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return sweep.WriteCSV(w, designs)
}
