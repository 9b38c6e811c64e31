package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// TestSimSweepMatchesPerPointSimulation is the oracle for flat "sim:"
// sweeps, which simulate every cache size of a line size in one pass
// over one shared trace. The reference is the per-point evaluation
// this replaced: a fresh workload generator and a fresh cache for
// every (size, line, bus) design. Every design's hit ratio must equal
// it exactly, for any workload, seed, associativity, bus width, pool
// size and cache_kb order, duplicates included.
func TestSimSweepMatchesPerPointSimulation(t *testing.T) {
	for _, source := range []string{"sim:ear", "sim:zipf"} {
		for _, seed := range []uint64{7, 1994} {
			for _, assoc := range []int{1, 2, 4} {
				for _, kb := range [][]int{{1, 4, 16}, {16, 1, 4, 1}} {
					cfg := Config{
						CacheKB: kb, LineBytes: []int{16, 32, 64}, BusBits: []int{32, 64, 128},
						LatencyNS: 360, TransferNS: 60, CPUNS: 30,
						HitSource: source, SimRefs: 5_000, Seed: seed, Assoc: assoc,
					}
					for _, workers := range []int{1, 8} {
						ds, err := Run(context.Background(), cfg, workers)
						if err != nil {
							t.Fatal(err)
						}
						// Each size × (3 lines × 3 buses − the 16B line on
						// the 128-bit bus, shorter than two transfers).
						if want := 8 * len(kb); len(ds) != want {
							t.Fatalf("%s seed %d: %d designs, want %d", source, seed, len(ds), want)
						}
						for _, d := range ds {
							src, err := trace.NewWorkload(strings.TrimPrefix(source, "sim:"), seed)
							if err != nil {
								t.Fatal(err)
							}
							c, err := cache.New(cache.Config{Size: d.CacheKB << 10, LineSize: d.LineBytes, Assoc: assoc})
							if err != nil {
								t.Fatal(err)
							}
							if want := cache.MeasureSource(c, src, cfg.SimRefs).HitRatio; d.HitRatio != want {
								t.Errorf("%s seed %d assoc %d cache_kb %v workers %d: %dKB/%dB/%d-bit hit ratio %v, per-point simulation %v",
									source, seed, assoc, kb, workers, d.CacheKB, d.LineBytes, d.BusBits, d.HitRatio, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestFlatSweepSpansPerGeometry pins the flat evaluation's shape in a
// trace export: exactly one sweep_point span per distinct (cache_kb,
// line) geometry that has a design, carrying both as args, however
// many bus widths price it, exactly one trace_gen span for the
// request's one "sim:" trace, and exactly one sim_pass span per line
// size that has a design, nested in a sweep_point of that line.
func TestFlatSweepSpansPerGeometry(t *testing.T) {
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	// The 4B line fits no bus (L < 2D everywhere), so its geometries
	// have no designs and must not be evaluated.
	cfg := Config{
		CacheKB: []int{2, 8}, LineBytes: []int{4, 16, 64}, BusBits: []int{32, 64, 128},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: "sim:zipf", SimRefs: 2_000,
	}
	ds, err := Run(ctx, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]bool{}
	for _, d := range ds {
		want[[2]int{d.CacheKB, d.LineBytes}] = true
	}
	if len(ds) != 10 || len(want) != 4 {
		t.Fatalf("%d designs over %d geometries, want 10 over 4", len(ds), len(want))
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]int{}
	traceGens := 0
	passes := map[int]int{}
	for _, ev := range events {
		if ev.Name == "sim_pass" {
			line := int(ev.Args["line_size"].(float64))
			passes[line]++
			if ev.Args["workload"] != "zipf" || ev.Args["refs"] != float64(cfg.SimRefs) || ev.Args["sizes"] != float64(len(cfg.CacheKB)) {
				t.Errorf("sim_pass args %v, want workload zipf, refs %d and sizes %d", ev.Args, cfg.SimRefs, len(cfg.CacheKB))
			}
			parent := false
			for _, p := range events {
				parent = parent || p.Name == "sweep_point" && p.TID == ev.TID && p.Args["line"] == float64(line) &&
					p.TS <= ev.TS && ev.TS+ev.Dur <= p.TS+p.Dur
			}
			if !parent {
				t.Errorf("sim_pass for line %d lies in no sweep_point of that line", line)
			}
		}
		if ev.Name == "trace_gen" {
			traceGens++
			if ev.Args["workload"] != "zipf" || ev.Args["refs"] != float64(cfg.SimRefs) {
				t.Errorf("trace_gen args %v, want workload zipf and refs %d", ev.Args, cfg.SimRefs)
			}
		}
		if ev.Name != "sweep_point" {
			continue
		}
		kb, okKB := ev.Args["cache_kb"].(float64)
		line, okLine := ev.Args["line"].(float64)
		if !okKB || !okLine {
			t.Fatalf("sweep_point args %v lack cache_kb and line", ev.Args)
		}
		seen[[2]int{int(kb), int(line)}]++
	}
	if traceGens != 1 {
		t.Errorf("%d trace_gen spans, want 1 for the whole sweep", traceGens)
	}
	if len(passes) != 2 || passes[16] != 1 || passes[64] != 1 {
		t.Errorf("sim_pass spans per line size %v, want exactly one for each of 16 and 64", passes)
	}
	if len(seen) != len(want) {
		t.Fatalf("sweep_point spans cover %d geometries %v, want %d %v", len(seen), seen, len(want), want)
	}
	for g, n := range seen {
		if !want[g] || n != 1 {
			t.Errorf("geometry %dKB/%dB: %d sweep_point spans, want exactly 1 for a priced geometry", g[0], g[1], n)
		}
	}
}
