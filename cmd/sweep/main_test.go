package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradeoff/internal/sweep"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "space.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunModelSweep(t *testing.T) {
	cfg := writeConfig(t, sweep.ExampleConfig)
	out := filepath.Join(t.TempDir(), "designs.csv")
	if err := run(context.Background(), cfg, out, 0, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.HasPrefix(lines[0], "cache_kb,line_bytes,bus_bits") {
		t.Fatalf("header: %q", lines[0])
	}
	// 5 sizes × 3 lines × 2 buses; the 16B line with a 64-bit bus is
	// exactly L = 2D and stays in: 30 designs.
	if len(lines)-1 != 30 {
		t.Fatalf("designs = %d, want 30", len(lines)-1)
	}
	pareto := 0
	for _, l := range lines[1:] {
		if strings.HasSuffix(l, ",true") {
			pareto++
		}
	}
	if pareto == 0 || pareto == len(lines)-1 {
		t.Fatalf("pareto count %d of %d implausible", pareto, len(lines)-1)
	}
}

// TestRunWritesTrace pins the acceptance criterion: -trace on the
// default grid produces a well-formed trace_event JSON array with one
// span per evaluated (cache size, line size) geometry.
func TestRunWritesTrace(t *testing.T) {
	cfg := writeConfig(t, sweep.ExampleConfig)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	if err := run(context.Background(), cfg, filepath.Join(dir, "d.csv"), 0, tracePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	// The example grid's 30 designs (see TestRunModelSweep) share 15
	// (cache size, line size) geometries; bus width does not change a
	// hit ratio, so each geometry is evaluated once.
	if len(events) != 15 {
		t.Fatalf("trace spans = %d, want 15 (one per evaluated geometry)", len(events))
	}
	for _, ev := range events {
		if ev.Name != "sweep_point" || ev.Ph != "X" {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
}

func TestRunSimSweep(t *testing.T) {
	cfg := writeConfig(t, `{
		"cache_kb": [8, 32], "line_bytes": [32], "bus_bits": [32],
		"latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
		"hit_source": "sim:zipf", "sim_refs": 30000
	}`)
	out := filepath.Join(t.TempDir(), "d.csv")
	if err := run(context.Background(), cfg, out, 0, ""); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines)-1 != 2 {
		t.Fatalf("designs = %d, want 2", len(lines)-1)
	}
	// Bigger cache ⇒ higher hit ratio in column 4.
	f := func(line string) string { return strings.Split(line, ",")[3] }
	if f(lines[1]) >= f(lines[2]) {
		t.Fatalf("hit ratios not increasing with size: %v vs %v", f(lines[1]), f(lines[2]))
	}
}

// TestRunMRCSweepTrace drives the "mrc:" hit source through the CLI
// with -trace, asserting the export shows one mrc_pass per line size —
// the user-visible proof an MRC sweep replaced per-point re-simulation
// with single passes.
func TestRunMRCSweepTrace(t *testing.T) {
	cfg := writeConfig(t, `{
		"cache_kb": [1, 2, 4, 8, 16, 32, 64, 128], "line_bytes": [16, 32, 64, 128],
		"bus_bits": [32, 64],
		"latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
		"hit_source": "mrc:ear", "sim_refs": 20000
	}`)
	dir := t.TempDir()
	out := filepath.Join(dir, "d.csv")
	tracePath := filepath.Join(dir, "trace.json")
	if err := run(context.Background(), cfg, out, 0, tracePath); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if n := len(strings.Split(strings.TrimSpace(string(data)), "\n")) - 1; n != 64 {
		t.Fatalf("designs = %d, want 64", n)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(traceData, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Name]++
	}
	if counts["sweep_point"] != 32 {
		t.Fatalf("sweep_point spans = %d, want 32 (one per cache size × line size)", counts["sweep_point"])
	}
	if counts["mrc_pass"] != 4 {
		t.Fatalf("mrc_pass spans = %d for 64 points, want 4 (one per line size)", counts["mrc_pass"])
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	cases := []string{
		`{`, // malformed JSON
		`{"cache_kb": [], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 0, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1, "hit_source": "psychic"}`,
		`{"cache_kb": [8], "line_bytes": [16], "bus_bits": [256], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1}`, // empty after 2D filter
	}
	for i, body := range cases {
		cfg := writeConfig(t, body)
		if err := run(context.Background(), cfg, filepath.Join(t.TempDir(), "x.csv"), 0, ""); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := run(context.Background(), filepath.Join(t.TempDir(), "missing.json"), "-", 0, ""); err == nil {
		t.Error("missing config accepted")
	}
}

func TestRunSimUnknownWorkload(t *testing.T) {
	cfg := writeConfig(t, `{
		"cache_kb": [8], "line_bytes": [32], "bus_bits": [32],
		"latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1,
		"hit_source": "sim:gcc"
	}`)
	if err := run(context.Background(), cfg, filepath.Join(t.TempDir(), "x.csv"), 0, ""); err == nil {
		t.Fatal("unknown simulated workload accepted")
	}
}
