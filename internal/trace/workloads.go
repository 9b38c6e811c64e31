package trace

import (
	"context"
	"sort"

	"tradeoff/internal/obs"
)

// Zipf names the synthetic independent-reference workload accepted
// alongside the six SPEC92-like programs wherever a workload name is
// parsed (sweep hit sources, /v1/stall grids, miss-ratio specs).
const Zipf = "zipf"

// Workloads lists every named workload: the six programs plus "zipf".
func Workloads() []string {
	return append(Programs(), Zipf)
}

// NewWorkload returns the named workload's source, seeded
// deterministically from seed. "zipf" selects the Zipf-popularity
// generator with the parameters the sweep engine has always used for
// its sim:zipf hit source; any other name resolves via NewProgram.
// The resulting Source is infinite; bound it with Limit.
func NewWorkload(name string, seed uint64) (Source, error) {
	spec, err := SpecFor(name, seed)
	if err != nil {
		return nil, err
	}
	return spec.Source(), nil
}

// Generate returns the first n references of the named workload at
// seed, in a trace_gen span on ctx whose args are workload and refs.
// Every trace a request or a validation pass generates by name comes
// from here, so each shows up in a trace the same way.
func Generate(ctx context.Context, name string, seed uint64, n int) ([]Ref, error) {
	src, err := NewWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "trace_gen")
	defer span.End()
	span.SetArg("workload", name)
	span.SetArg("refs", n)
	return Collect(src, n), nil
}

// MustWorkload is NewWorkload but panics on an unknown name, for tests
// and benchmarks where the name is a compile-time constant.
func MustWorkload(name string, seed uint64) Source {
	src, err := NewWorkload(name, seed)
	if err != nil {
		panic(err)
	}
	return src
}

// ValidWorkloads reports whether every name in names is a known
// workload, returning the sorted list of unknown names otherwise.
func ValidWorkloads(names []string) (unknown []string) {
	known := make(map[string]bool, 7)
	for _, w := range Workloads() {
		known[w] = true
	}
	for _, n := range names {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	sort.Strings(unknown)
	return unknown
}
