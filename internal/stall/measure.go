package stall

import "tradeoff/internal/trace"

// RunSource replays up to n references drawn from src. See Run.
func RunSource(cfg Config, src trace.Source, n int) (Result, error) {
	return Run(cfg, trace.Collect(src, n))
}

// AverageResults aggregates per-program results — given in the same
// order as names — the way the paper's Figure 1 averages six SPEC92
// programs: event counters sum, while Phi and PhiFraction average
// unweighted, accumulated in names order so callers that parallelize
// the measurements (internal/simjob consumers) reproduce the serial
// float arithmetic exactly.
func AverageResults(names []string, results []Result) (perProgram map[string]Result, avg Result) {
	perProgram = make(map[string]Result, len(names))
	var sumPhi, sumFrac float64
	for i, name := range names {
		res := results[i]
		perProgram[name] = res
		sumPhi += res.Phi
		sumFrac += res.PhiFraction
		avg.Refs += res.Refs
		avg.Misses += res.Misses
		avg.E += res.E
		avg.Cycles += res.Cycles
		avg.BaseCycles += res.BaseCycles
		avg.FillStall += res.FillStall
		avg.BusWait += res.BusWait
		avg.FlushStall += res.FlushStall
		avg.WriteStall += res.WriteStall
		avg.HiddenFlush += res.HiddenFlush
		avg.BufferFull += res.BufferFull
		avg.Conflict += res.Conflict
	}
	if len(names) > 0 {
		avg.Phi = sumPhi / float64(len(names))
		avg.PhiFraction = sumFrac / float64(len(names))
	}
	return perProgram, avg
}
