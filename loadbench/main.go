// Command loadbench is the repository's end-to-end benchmark: it serves
// tradeoffd on a loopback listener, drives it with a closed loop of two
// clients replaying one of four seeded workloads, checks every answer,
// and prints each metric named in BENCHMARK.json with its unit.
//
// Usage, from the repository root:
//
//	bash loadbench/run.sh --workload <name|all> --seed N [--seconds S] [--trace 0|1]
//	bash loadbench/run.sh -compare BASE_DIR NEW_DIR
//
// The workloads are sweep_sim, sweep_curves, stall_replay and
// interactive_mix (README.md says what each loads and why). For each
// run the process starts itself as a child five times; each child
// builds the server as cmd/tradeoffd does, checks the service goldens
// and the workload's committed response digests, and warms the server
// up. setup_s is the median of the five children's start-to-ready
// times; the last child then runs the timed window and reports. A
// golden or digest mismatch ends the run with a non-zero exit and no
// metrics.
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics, measured by an untraced and a traced child that
// split the window, and the traced child writes Chrome trace_event
// files under .bench_build/traces.
//
// -compare reads two directories of saved result lines, one file per
// run named <workload>-<anything>.json, and prints a verdict for every
// end-to-end metric × workload against the BENCHMARK.json bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets the server up; setup_s is
// their median.
const setupRuns = 5

// runTimeout bounds one workload's run, children included.
const runTimeout = 170 * time.Second

// Child modes: what a child process does after set-up.
const (
	childSetup    = "setup"    // exit once ready
	childE2E      = "e2e"      // the end-to-end window
	childUntraced = "untraced" // half the window, plus service and engine metrics
	childTraced   = "traced"   // half the window on a large flight recorder, plus layer calls
)

// benchSpec is BENCHMARK.json: the metrics a run reports, their units
// and bounds.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// result is the line a run prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childResult is what a child reports to its parent.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

type options struct {
	root, workload string
	seed           uint64
	seconds        int
	trace          bool
}

func main() {
	var (
		o       options
		trace   int
		compare bool
		child   string
	)
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 0, "timed window in seconds (0 = BENCHMARK.json run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&compare, "compare", false, "compare two directories of saved results: -compare BASE NEW")
	flag.StringVar(&child, "child", "", "internal: run as a child in this mode")
	flag.Parse()
	o.trace = trace == 1

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: loadbench -compare BASE_DIR NEW_DIR")
			break
		}
		var regressions int
		regressions, err = runCompare(os.Stdout, o.root, flag.Arg(0), flag.Arg(1))
		if err == nil && regressions > 0 {
			err = fmt.Errorf("%d metric(s) regressed", regressions)
		}
	case child != "":
		err = runChild(child, o)
	case trace != 0 && trace != 1:
		err = fmt.Errorf("-trace %d, want 0 or 1", trace)
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	for _, w := range names {
		if !knownWorkload(w) {
			return fmt.Errorf("unknown workload %q (want all or one of %v)", w, workloadNames)
		}
	}
	for _, w := range names {
		o.workload = w
		res, err := runWorkload(o, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		printSummary(os.Stderr, w, res)
		if len(names) > 1 {
			fmt.Printf("# %s\n", w)
		}
		fmt.Printf("%s\n", line)
	}
	return nil
}

// runWorkload runs one workload and assembles the metrics BENCHMARK.json
// asks for.
func runWorkload(o options, spec benchSpec) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	values := map[string]float64{}
	var attempted, failed int
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
		a, err := spawn(ctx, childUntraced, o)
		if err != nil {
			return result{}, err
		}
		b, err := spawn(ctx, childTraced, o)
		if err != nil {
			return result{}, err
		}
		for _, c := range []childRun{a, b} {
			attempted += c.out.Attempted
			failed += c.out.Failed
			for k, v := range c.out.Metrics {
				values[k] = v
			}
		}
		values["tracing.throughput_ratio"] = b.out.Metrics["throughput_rps"] / a.out.Metrics["throughput_rps"]
	} else {
		setups := make([]float64, 0, setupRuns)
		for i := 0; i < setupRuns; i++ {
			mode := childSetup
			if i == setupRuns-1 {
				mode = childE2E
			}
			c, err := spawn(ctx, mode, o)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, c.setup.Seconds())
			if mode == childE2E {
				attempted, failed = c.out.Attempted, c.out.Failed
				values = c.out.Metrics
				values["rss_peak_mb"] = float64(c.maxRSS) / (1 << 20)
			}
		}
		values["setup_s"] = median(setups)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s: no finite value measured", m.Name)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func printSummary(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d requests, %d failed\n", workload, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

// childRun is one finished child: its set-up time as the parent saw
// it, its report and its peak resident set.
type childRun struct {
	setup  time.Duration
	out    childResult
	maxRSS int64 // bytes
}

// spawn runs this program as a child in mode and waits for it. The
// child prints "ready" once set up, then (unless mode is childSetup)
// its report.
func spawn(ctx context.Context, mode string, o options) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-root", o.root, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds))
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var c childRun
	sc := bufio.NewScanner(stdout)
	var lines []string
	for sc.Scan() {
		if c.setup == 0 && sc.Text() == "ready" {
			c.setup = time.Since(start)
			continue
		}
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return childRun{}, fmt.Errorf("%s child: reading its report: %w", mode, scanErr)
	}
	if c.setup == 0 {
		return childRun{}, fmt.Errorf("%s child exited before it was ready", mode)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSS = ru.Maxrss << 10 // Linux reports KiB
	}
	if mode == childSetup {
		return c, nil
	}
	if len(lines) == 0 {
		return childRun{}, fmt.Errorf("%s child printed no report", mode)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.out); err != nil {
		return childRun{}, fmt.Errorf("%s child report: %w", mode, err)
	}
	return c, nil
}

// runChild is a child process: set up a server, report ready, then
// measure what mode asks for and print the report.
func runChild(mode string, o options) error {
	if !knownWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	ring := 0
	if mode == childTraced {
		ring = tracedRing
	}
	d := time.Duration(o.seconds) * time.Second
	switch mode {
	case childSetup, childE2E:
	case childUntraced, childTraced:
		d /= 2
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	s, err := startServer(ring)
	if err != nil {
		return err
	}
	out, err := childWork(s, mode, o, d)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil || mode == childSetup {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func childWork(s *server, mode string, o options, d time.Duration) (childResult, error) {
	cs := []*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}()
	if err := setUp(s, cs[0], o.root, o.workload, o.seed); err != nil {
		return childResult{}, err
	}
	fmt.Println("ready")
	if mode == childSetup {
		return childResult{}, nil
	}

	var promBefore []byte
	if mode == childUntraced {
		var err error
		if promBefore, err = s.get(cs[0], "/metrics?format=prom"); err != nil {
			return childResult{}, err
		}
	}
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	w, err := runWindow(s, cs, o.workload, o.seed, d, 0)
	if err != nil {
		return childResult{}, err
	}
	u1 := readUsage()
	if err := w.firstErr(); err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %d of %d requests failed; first: %v\n", w.failed(), len(w.samples), err)
	}

	n := len(w.samples)
	out := childResult{Attempted: n, Failed: w.failed(), Metrics: map[string]float64{
		"throughput_rps":   w.throughput(),
		"cpu_ms_per_req":   (u1.cpu - u0.cpu).Seconds() * 1e3 / float64(n),
		"alloc_mb_per_req": float64(u1.alloc-u0.alloc) / (1 << 20) / float64(n),
	}}
	switch mode {
	case childE2E:
		lat := w.latencies()
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return out, err
		}
		p99, err := percentile(lat, 0.99)
		if err != nil {
			return out, fmt.Errorf("latency: %w; the window is too short for this machine", err)
		}
		out.Metrics["latency_p50_ms"] = p50
		out.Metrics["latency_p99_ms"] = p99
	case childUntraced:
		promAfter, err := s.get(cs[0], "/metrics?format=prom")
		if err != nil {
			return out, err
		}
		eng, err := engineMetrics(promBefore, promAfter, n)
		if err != nil {
			return out, err
		}
		for k, v := range eng {
			out.Metrics[k] = v
		}
		for k, v := range serviceMetrics(w) {
			out.Metrics[k] = v
		}
	case childTraced:
		layers, err := tracedMetrics(s, cs[0], o.root, o.workload, o.seed, start)
		if err != nil {
			return out, err
		}
		for k, v := range layers {
			out.Metrics[k] = v
		}
	}
	return out, nil
}

// usage is the process's CPU time and cumulative heap allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}
