package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func doc(names ...string) Document {
	d := Document{Schema: Schema}
	for i, n := range names {
		d.Benchmarks = append(d.Benchmarks, Result{Name: n, Iterations: 1, NsPerOp: float64(100 * (i + 1))})
	}
	return d
}

// passing is captured `go test -bench '^BenchmarkLadder$' -benchmem
// -count 5` output: two rows at GOMAXPROCS 2 (a -2 suffix, one with
// an ns/ref metric) and one row from a GOMAXPROCS 1 run (no suffix).
const passing = `goos: linux
goarch: amd64
pkg: tradeoff
cpu: Intel(R) Xeon(R) Processor
BenchmarkLadder/trace_gen_20k-2         	      20	   2061643 ns/op	       103.1 ns/ref	  483939 B/op	      11 allocs/op
BenchmarkLadder/trace_gen_20k-2         	      20	   1580952 ns/op	        79.03 ns/ref	  483933 B/op	      11 allocs/op
BenchmarkLadder/trace_gen_20k-2         	      20	   1451225 ns/op	        72.55 ns/ref	  483933 B/op	      11 allocs/op
BenchmarkLadder/trace_gen_20k-2         	      20	   1528147 ns/op	        76.39 ns/ref	  483933 B/op	      11 allocs/op
BenchmarkLadder/trace_gen_20k-2         	      20	   1677096 ns/op	        83.84 ns/ref	  483933 B/op	      11 allocs/op
BenchmarkLadder/tradeoff_eval-2         	      20	       106.8 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/tradeoff_eval-2         	      20	       189.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/tradeoff_eval-2         	      20	       185.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/tradeoff_eval-2         	      20	        89.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/tradeoff_eval-2         	      20	        75.90 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/span_ring_record         	    1000	        34.05 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/span_ring_record         	    1000	        88.41 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/span_ring_record         	    1000	        33.93 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/span_ring_record         	    1000	        34.83 ns/op	       0 B/op	       0 allocs/op
BenchmarkLadder/span_ring_record         	    1000	        33.27 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	tradeoff	0.203s
`

// failing is captured output of a run in which one row called b.Fatal.
const failing = `goos: linux
goarch: amd64
pkg: tradeoff
BenchmarkLadder/ok_row-2         	     100	        10.90 ns/op	       0 B/op	       0 allocs/op
--- FAIL: BenchmarkLadder/failing_row
    bench_test.go:10: boom
--- FAIL: BenchmarkLadder
FAIL
exit status 1
FAIL	tradeoff	0.015s
FAIL
`

// passingRows is what record makes of passing.
func passingRows() []Result {
	zero := Spread{}
	return []Result{
		{Name: "trace_gen_20k", Runs: 5, Iterations: 100, NsPerOp: 1580952, BytesPerOp: 483933, AllocsPerOp: 11,
			Units: map[string]Spread{
				"ns/op":     {Median: 1580952, Min: 1451225, Max: 2061643},
				"ns/ref":    {Median: 79.03, Min: 72.55, Max: 103.1},
				"B/op":      {Median: 483933, Min: 483933, Max: 483939},
				"allocs/op": {Median: 11, Min: 11, Max: 11},
			}},
		{Name: "tradeoff_eval", Runs: 5, Iterations: 100, NsPerOp: 106.8,
			Units: map[string]Spread{"ns/op": {Median: 106.8, Min: 75.90, Max: 189.5}, "B/op": zero, "allocs/op": zero}},
		{Name: "span_ring_record", Runs: 5, Iterations: 5000, NsPerOp: 34.05,
			Units: map[string]Spread{"ns/op": {Median: 34.05, Min: 33.27, Max: 88.41}, "B/op": zero, "allocs/op": zero}},
	}
}

func TestParseRecordsMedianAndSpread(t *testing.T) {
	d, err := record(strings.NewReader(passing), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := passingRows(); d.Schema != Schema || !reflect.DeepEqual(d.Benchmarks, want) {
		t.Fatalf("record = %+v\nwant %+v", d.Benchmarks, want)
	}
}

// TestRecordMergesPasses feeds record the output benchjson collects:
// five go test runs at -count 1, each with its own header and trailer
// and one result line per row. passing's five runs of each row,
// dealt one to a pass, must merge into the same rows.
func TestRecordMergesPasses(t *testing.T) {
	lines := strings.Split(passing, "\n")
	header, results := lines[:4], lines[4:19]
	var out strings.Builder
	for pass := 0; pass < passes; pass++ {
		out.WriteString(strings.Join(header, "\n") + "\n")
		for row := 0; row < 3; row++ {
			out.WriteString(results[row*passes+pass] + "\n")
		}
		out.WriteString("PASS\nok  \ttradeoff\t0.041s\n")
	}
	d, err := record(strings.NewReader(out.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := passingRows(); !reflect.DeepEqual(d.Benchmarks, want) {
		t.Fatalf("record over %d passes = %+v\nwant %+v", passes, d.Benchmarks, want)
	}
}

func TestRecordRejectsFailures(t *testing.T) {
	if _, err := record(strings.NewReader(failing), errors.New("exit status 1")); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkLadder/failing_row") {
		t.Errorf("failing row: err = %v, want one naming BenchmarkLadder/failing_row", err)
	}
	if _, err := record(strings.NewReader(passing), errors.New("exit status 2")); err == nil {
		t.Error("a non-zero go test exit was recorded")
	}
	if _, err := record(strings.NewReader("PASS\n"), nil); err == nil {
		t.Error("a run with no ladder rows was recorded")
	}
	if _, err := record(strings.NewReader("BenchmarkLadder/x-2 \t 10 \t 5 ns/op \t 7\n"), nil); err == nil {
		t.Error("a malformed result line was recorded")
	}
}

func TestRunWritesNothingOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err := run(path, "", 1.25, func() (Document, error) { return record(strings.NewReader(failing), nil) })
	if err == nil {
		t.Fatal("a failing row recorded a baseline")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed run left %s behind (stat: %v)", path, err)
	}
	if err := run(path, "", 1.25, func() (Document, error) { return record(strings.NewReader(passing), nil) }); err != nil {
		t.Fatal(err)
	}
	d, err := readBaseline(path)
	if err != nil || len(d.Benchmarks) != 3 {
		t.Fatalf("written baseline = %+v, %v; want the 3 rows", d, err)
	}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	base, cur := doc("a", "b"), doc("a", "b")
	cur.Benchmarks[0].NsPerOp *= 1.2 // under 1.25x: fine
	var sb strings.Builder
	if err := diff(&sb, base, cur, 1.25); err != nil {
		t.Fatalf("within-threshold diff failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "1.20x") {
		t.Fatalf("diff output lacks the ratio:\n%s", sb.String())
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	base, cur := doc("a"), doc("a")
	cur.Benchmarks[0].NsPerOp *= 2
	var sb strings.Builder
	err := diff(&sb, base, cur, 1.25)
	if err == nil {
		t.Fatalf("2x regression passed:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "a") {
		t.Fatalf("error does not name the benchmark: %v", err)
	}
}

// allocDocs returns a baseline recorded on Go version base, whose one
// row's allocs/op runs spread from 10 to 12, and a run of that row at
// allocs on Go version cur, both at GOMAXPROCS procs.
func allocDocs(allocs int64, base, cur string, procs int) (Document, Document) {
	b, c := doc("a"), doc("a")
	b.GoVersion, b.GOMAXPROCS, c.GoVersion, c.GOMAXPROCS = base, procs, cur, procs
	b.Benchmarks[0].AllocsPerOp = 11
	b.Benchmarks[0].Units = map[string]Spread{"allocs/op": {Median: 11, Min: 10, Max: 12}}
	c.Benchmarks[0].AllocsPerOp = allocs
	return b, c
}

func TestDiffGatesAllocations(t *testing.T) {
	for _, allocs := range []int64{9, 12} {
		base, cur := allocDocs(allocs, "go1.24.0", "go1.24.0", 2)
		var sb strings.Builder
		if err := diff(&sb, base, cur, 1.25); err != nil {
			t.Errorf("%d allocs/op within the baseline's runs failed: %v\n%s", allocs, err, sb.String())
		}
		if strings.Contains(sb.String(), "skipped") {
			t.Errorf("matching toolchains skipped the allocation gate:\n%s", sb.String())
		}
	}
	base, cur := allocDocs(13, "go1.24.0", "go1.24.0", 2)
	var sb strings.Builder
	err := diff(&sb, base, cur, 1.25)
	if err == nil || !strings.Contains(err.Error(), "[a]") {
		t.Fatalf("13 allocs/op over the baseline's highest run of 12: err = %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "13 allocs/op vs 11 baseline (highest run 12) REGRESSED") {
		t.Errorf("diff output lacks the allocation verdict:\n%s", sb.String())
	}
}

func TestDiffSkipsAllocationGateAcrossToolchains(t *testing.T) {
	for _, c := range []struct{ base, cur, want string }{
		{"go1.24.0", "go1.22.12", "the baseline ran go1.24.0 at GOMAXPROCS 2, this run go1.22.12 at GOMAXPROCS 2"},
		{"", "go1.24.0", "the baseline ran an unrecorded Go version"},
	} {
		base, cur := allocDocs(50, c.base, c.cur, 2)
		var sb strings.Builder
		if err := diff(&sb, base, cur, 1.25); err != nil {
			t.Errorf("baseline %q, run %q: the skipped gate failed the comparison: %v", c.base, c.cur, err)
		}
		if out := sb.String(); !strings.Contains(out, "allocation gate skipped: "+c.want) {
			t.Errorf("baseline %q, run %q: output does not say why the gate was skipped:\n%s", c.base, c.cur, out)
		}
	}
	base, cur := allocDocs(50, "go1.24.0", "go1.24.0", 2)
	cur.GOMAXPROCS = 4
	var sb strings.Builder
	if err := diff(&sb, base, cur, 1.25); err != nil || !strings.Contains(sb.String(), "this run go1.24.0 at GOMAXPROCS 4") {
		t.Errorf("GOMAXPROCS 4 against a baseline at 2: err = %v, output:\n%s", err, sb.String())
	}
}

func TestDiffToleratesAsymmetricSuites(t *testing.T) {
	// New benchmarks without a baseline and removed ones report but
	// never fail, so suite growth doesn't invalidate old baselines.
	var sb strings.Builder
	if err := diff(&sb, doc("old"), doc("new"), 1.25); err != nil {
		t.Fatalf("asymmetric suites failed: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "no baseline") || !strings.Contains(out, "only in baseline") {
		t.Fatalf("asymmetry not reported:\n%s", out)
	}
}

func TestReadBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte(`{"schema":"tradeoff-bench/v1","benchmarks":[{"name":"x","iterations":3,"ns_per_op":42}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 1 || d.Benchmarks[0].NsPerOp != 42 {
		t.Fatalf("decoded %+v", d)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"tradeoff-bench/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := readBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestBaselineCommitted pins that the repo-root baseline parses,
// carries the current schema and the toolchain it ran on, and holds a
// median-of-runs measurement with its spread in every row. The root package's TestLadderBaselined
// checks it covers every ladder row.
func TestBaselineCommitted(t *testing.T) {
	d, err := readBaseline("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) == 0 {
		t.Fatal("committed baseline has no rows")
	}
	if !strings.HasPrefix(d.GoVersion, "go") || d.GOMAXPROCS < 1 {
		t.Errorf("baseline records Go version %q and GOMAXPROCS %d, want both", d.GoVersion, d.GOMAXPROCS)
	}
	for _, r := range d.Benchmarks {
		ns := r.Units["ns/op"]
		if r.Runs != passes || r.Iterations <= 0 || r.NsPerOp <= 0 || ns.Median != r.NsPerOp || ns.Min > ns.Median || ns.Median > ns.Max {
			t.Errorf("baseline %s is not a median of %d runs with its spread: %+v", r.Name, passes, r)
		}
	}
}
