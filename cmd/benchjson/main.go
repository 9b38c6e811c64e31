// Command benchjson records the benchmark ladder, BenchmarkLadder in
// the root bench_test.go (the repo's one micro-benchmark registry), as
// a stable JSON document: the baseline BENCH_sweep.json rides along
// with the code and CI diffs against it. benchjson keeps no benchmark
// of its own. Run from the module root, it runs
//
//	go test -run '^$' -bench '^BenchmarkLadder$' -benchmem -count 1
//
// five times and reads go test's standard result lines, so `go test
// -bench` and benchjson time the same code. Each pass runs every row
// once, so host drift over the minutes a recording takes spreads over
// every row's runs instead of moving the rows it happens to overlap.
//
//	benchjson -o BENCH_sweep.json        # record a baseline (make bench-record)
//	benchjson -compare BENCH_sweep.json  # re-measure and diff
//
// The schema ("tradeoff-bench/v1") is additive: the Go version and
// GOMAXPROCS the ladder ran at, and per ladder row, the median ns/op,
// B/op and allocs/op of its five runs, and the median, lowest and
// highest run of those and of each unit the row reports with
// b.ReportMetric (ns/ref for the rows that walk a trace). A failing
// row or go test run exits non-zero and writes nothing. -compare exits
// non-zero when a row's median ns/op exceeds -threshold (default
// 1.25×) times the baseline's, or, when the run's Go version and
// GOMAXPROCS equal the baseline's, when a row's median allocs/op
// exceeds the baseline's highest run: allocation counts repeat from
// run to run, so that gate can block, but they move with the runtime
// and the pool size, so it says why it skips on any other run. CI runs
// -compare non-blocking, so a slow runner flags but cannot block a
// merge.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Schema is the document's version tag; bump only on breaking shape
// changes, never for added rows or fields.
const Schema = "tradeoff-bench/v1"

const (
	// ladder is the benchmark benchjson records; each of its
	// sub-benchmarks is one row of the document.
	ladder = "BenchmarkLadder"
	// passes is how many times the ladder runs, once per row each
	// time: each row's median and spread are taken over the passes.
	passes = 5
)

// Document is the file benchjson writes and compares.
type Document struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version,omitempty"` // the toolchain that built and ran the ladder
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one ladder row: the median ns/op, B/op and allocs/op of
// its runs, and the spread of every unit it reports.
type Result struct {
	Name        string            `json:"name"`
	Runs        int               `json:"runs"`
	Iterations  int               `json:"iterations"` // b.N summed over the runs
	NsPerOp     float64           `json:"ns_per_op"`
	BytesPerOp  int64             `json:"bytes_per_op"`
	AllocsPerOp int64             `json:"allocs_per_op"`
	Units       map[string]Spread `json:"units"` // ns/op, B/op, allocs/op and each b.ReportMetric unit (ns/ref)
}

// Spread is one unit's median over a row's runs (the lower middle run
// for an even count) with the lowest and highest run.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func main() {
	var (
		out       = flag.String("o", "", "write measurements to this JSON file")
		compare   = flag.String("compare", "", "re-measure and diff against this baseline JSON")
		threshold = flag.Float64("threshold", 1.25, "ns/op regression ratio that fails -compare")
	)
	flag.Parse()
	if (*out == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "usage: benchjson -o out.json | -compare baseline.json")
		os.Exit(2)
	}
	if err := run(*out, *compare, *threshold, measure); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run measures the ladder with measure and writes the document to out,
// or diffs it against the baseline at compare. Nothing is written
// unless the measurement succeeds.
func run(out, compare string, threshold float64, measure func() (Document, error)) error {
	doc, err := measure()
	if err != nil {
		return err
	}
	if out == "" {
		base, err := readBaseline(compare)
		if err != nil {
			return err
		}
		return diff(os.Stdout, base, doc, threshold)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), out)
	return nil
}

// measure runs the ladder passes times in the working directory, the
// module root, echoing go test's output to stderr as it streams, and
// summarizes the result lines of every pass. The child go test
// inherits this process's environment, so it runs at this GOMAXPROCS
// and, built by the same go command, this Go version.
func measure() (Document, error) {
	var out bytes.Buffer
	var err error
	for i := 0; i < passes && err == nil; i++ {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+ladder+"$", "-benchmem", "-count", "1")
		cmd.Stdout = io.MultiWriter(&out, os.Stderr)
		cmd.Stderr = os.Stderr
		err = cmd.Run()
	}
	doc, err := record(&out, err)
	if err != nil {
		return Document{}, err
	}
	doc.GoVersion, doc.GOMAXPROCS = runtime.Version(), runtime.GOMAXPROCS(0)
	return doc, nil
}

// record turns the output of one or more go test runs into the
// document; a row's runs from every run merge into one row. runErr is
// the runs' first error: a failed row or a non-zero exit fails the
// record.
func record(out io.Reader, runErr error) (Document, error) {
	rows, err := parse(out)
	if err != nil {
		return Document{}, err
	}
	if runErr != nil {
		return Document{}, fmt.Errorf("go test: %w", runErr)
	}
	if len(rows) == 0 {
		return Document{}, fmt.Errorf("go test reported no %s rows", ladder)
	}
	return Document{Schema: Schema, Benchmarks: rows}, nil
}

// row gathers one ladder row's result lines.
type row struct {
	runs, iterations int
	units            map[string][]float64 // each unit's value per run
}

// parse reads go test -bench output and summarizes each ladder row's
// result lines (name, b.N, then value–unit pairs), rows in order of
// first appearance and runs merged by name across go test runs. A
// row's name drops go test's -GOMAXPROCS suffix. A "--- FAIL" line
// fails the parse.
func parse(r io.Reader) ([]Result, error) {
	var order []string
	rows := map[string]*row{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if name, ok := strings.CutPrefix(line, "--- FAIL: "); ok {
			return nil, fmt.Errorf("%s failed", name)
		}
		if !strings.HasPrefix(line, ladder+"/") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			return nil, fmt.Errorf("malformed result line %q", line)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("malformed result line %q: %w", line, err)
		}
		name := strings.TrimPrefix(f[0], ladder+"/")
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		rw := rows[name]
		if rw == nil {
			rw = &row{units: map[string][]float64{}}
			rows[name] = rw
			order = append(order, name)
		}
		rw.runs++
		rw.iterations += n
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("malformed result line %q: %w", line, err)
			}
			rw.units[f[i+1]] = append(rw.units[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Result, len(order))
	for i, name := range order {
		var err error
		if out[i], err = summarize(name, rows[name]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// summarize reduces a row's runs to each unit's spread. Every run must
// report every unit, ns/op among them.
func summarize(name string, rw *row) (Result, error) {
	if _, ok := rw.units["ns/op"]; !ok {
		return Result{}, fmt.Errorf("%s reports no ns/op", name)
	}
	res := Result{Name: name, Runs: rw.runs, Iterations: rw.iterations, Units: map[string]Spread{}}
	for unit, vals := range rw.units {
		if len(vals) != rw.runs {
			return Result{}, fmt.Errorf("%s reports %s in %d of %d runs", name, unit, len(vals), rw.runs)
		}
		sort.Float64s(vals)
		res.Units[unit] = Spread{Median: vals[(len(vals)-1)/2], Min: vals[0], Max: vals[len(vals)-1]}
	}
	res.NsPerOp = res.Units["ns/op"].Median
	res.BytesPerOp = int64(res.Units["B/op"].Median)
	res.AllocsPerOp = int64(res.Units["allocs/op"].Median)
	return res, nil
}

func readBaseline(path string) (Document, error) {
	var doc Document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return doc, nil
}

// diff prints a per-benchmark comparison and errors when any current
// median exceeds threshold × its baseline median ns/op, or, when cur
// ran on the baseline's Go version and GOMAXPROCS, when any current
// median allocs/op exceeds the baseline's highest run. Benchmarks
// present on only one side are reported but never fail the check, so
// adding a benchmark does not break an older baseline.
func diff(w io.Writer, base, cur Document, threshold float64) error {
	baseline := map[string]Result{}
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	gateAllocs := base.GoVersion != "" && base.GoVersion == cur.GoVersion && base.GOMAXPROCS == cur.GOMAXPROCS
	var sb strings.Builder
	if !gateAllocs {
		fmt.Fprintf(&sb, "allocation gate skipped: the baseline ran %s at GOMAXPROCS %d, this run %s at GOMAXPROCS %d\n",
			orUnknown(base.GoVersion), base.GOMAXPROCS, orUnknown(cur.GoVersion), cur.GOMAXPROCS)
	}
	var regressed []string
	for _, r := range cur.Benchmarks {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-24s %.0f ns/op, %d allocs/op (no baseline)\n", r.Name, r.NsPerOp, r.AllocsPerOp)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		mark := "ok"
		if ratio > threshold {
			mark = "REGRESSED"
		}
		maxAllocs := b.AllocsPerOp
		if u, ok := b.Units["allocs/op"]; ok {
			maxAllocs = int64(u.Max)
		}
		allocMark := "ok"
		if gateAllocs && r.AllocsPerOp > maxAllocs {
			allocMark = "REGRESSED"
		}
		if mark != "ok" || allocMark != "ok" {
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(&sb, "%-24s %.0f ns/op vs %.0f baseline (%.2fx) %s; %d allocs/op vs %d baseline (highest run %d) %s\n",
			r.Name, r.NsPerOp, b.NsPerOp, ratio, mark, r.AllocsPerOp, b.AllocsPerOp, maxAllocs, allocMark)
		delete(baseline, r.Name)
	}
	removed := make([]string, 0, len(baseline))
	for name := range baseline {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(&sb, "%-24s only in baseline (benchmark removed?)\n", name)
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed (ns/op over %.2fx, or allocs/op over the baseline's highest run): %v",
			len(regressed), threshold, regressed)
	}
	return nil
}

// orUnknown names a missing Go version.
func orUnknown(v string) string {
	if v == "" {
		return "an unrecorded Go version"
	}
	return v
}
