package experiments

import (
	"context"
	"fmt"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/plot"
	"tradeoff/internal/simjob"
	"tradeoff/internal/stall"
	"tradeoff/internal/stats"
	"tradeoff/internal/trace"
)

// fig1Cache is the cache design point of Figure 1: 8 Kbytes, two-way
// set associative, write-allocate, 32-byte lines.
func fig1Cache() cache.Config {
	return cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2, WriteMiss: cache.WriteAllocate, Replacement: cache.LRU}
}

// fig1Betas returns the memory-cycle sweep of Figure 1 (per 4 bytes).
func fig1Betas(o Options) []int64 {
	if o.Fast {
		return []int64{2, 10, 25, 50}
	}
	return []int64{2, 5, 10, 15, 20, 25, 30, 40, 50}
}

// MeasurePhi measures the average stalling factor φ for one feature at
// one memory cycle time across the six SPEC92-like programs, with the
// Figure 1 cache geometry at the given line size. It is reused by the
// unified-comparison figures, which plot the BNL curves with "the
// average stalling factor obtained from the simulations" (§5.3). The
// six replays run concurrently on the shared simjob pool.
func MeasurePhi(feature stall.Feature, betaM int64, lineSize int, o Options) (float64, error) {
	cc := fig1Cache()
	cc.LineSize = lineSize
	cfg := stall.Config{
		Cache:   cc,
		Memory:  memory.Config{BetaM: betaM, BusWidth: 4},
		Feature: feature,
	}
	_, avg, err := averagePrograms(cfg, o.refsPerProgram(), o.seed(), o.Workers)
	if err != nil {
		return 0, err
	}
	return avg.Phi, nil
}

// Figure1 reproduces Figure 1: the measured stalling factors of the
// BL, BNL1, BNL2 and BNL3 features as percentages of the full-stalling
// factor L/D, versus memory cycle time, averaged over the six SPEC92
// workload models. A companion table reports the per-program spread of
// each average — the workload-dependence the paper's single curve
// hides.
func Figure1(o Options) ([]Artifact, error) {
	betas := fig1Betas(o)
	features := stall.PartialFeatures()
	programs := trace.Programs()

	// One flat job list — feature outermost, βm, program innermost —
	// in one Run, so the figure simulates each program's cache once and
	// replays every (feature, βm) timing from it concurrently on the
	// shared pool instead of serially per curve point. Slot-indexed
	// results come back in exactly this order.
	jobs := make([]simjob.Job, 0, len(features)*len(betas)*len(programs))
	for _, f := range features {
		for _, b := range betas {
			for _, name := range programs {
				jobs = append(jobs, simjob.Job{
					Trace: simjob.TraceSpec{Program: name, Seed: o.seed(), Refs: o.refsPerProgram()},
					Cfg: stall.Config{
						Cache:   fig1Cache(),
						Memory:  memory.Config{BetaM: b, BusWidth: 4},
						Feature: f,
					},
				})
			}
		}
	}
	results, err := simRunner.Run(context.Background(), jobs, simjob.Options{Workers: o.Workers})
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}

	chart := plot.Chart{
		Title:  "Figure 1: Stalling Factor (avg of six SPEC92 models, 8KB 2-way write-allocate, L=32, D=4)",
		XLabel: "memory cycle time per 4 bytes",
		YLabel: "stalling factor (% of L/D)",
	}
	spread := plot.Table{
		Title:   "Figure 1 per-program spread of the stalling factor (% of L/D)",
		Columns: []string{"feature", "betaM", "mean", "stddev", "min", "max"},
	}
	next := 0
	for _, f := range features {
		s := plot.Series{Name: f.String()}
		for _, b := range betas {
			per, avg := stall.AverageResults(programs, results[next:next+len(programs)])
			next += len(programs)
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, 100*avg.PhiFraction)
			// Summarize in program order, so the spread statistics are
			// bit-stable run to run (map iteration is not).
			fracs := make([]float64, 0, len(per))
			for _, name := range programs {
				fracs = append(fracs, 100*per[name].PhiFraction)
			}
			sum, err := stats.Summarize(fracs)
			if err != nil {
				return nil, err
			}
			spread.AddRowf(f.String(), b, sum.Mean, sum.StdDev, sum.Min, sum.Max)
		}
		chart.Series = append(chart.Series, s)
	}
	return []Artifact{
		{ID: "E3", Name: "figure1", Title: chart.Title, Chart: &chart},
		{ID: "E3", Name: "figure1_spread", Title: spread.Title, Table: &spread},
	}, nil
}
