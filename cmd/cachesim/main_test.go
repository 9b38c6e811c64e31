package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestRunProfileMode(t *testing.T) {
	if err := run(input{program: "swm256"}, 20000, 1, 8<<10, 32, 2, "allocate", "", "", 10, 4, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunStallMode(t *testing.T) {
	for _, f := range []string{"FS", "BL", "BNL1", "BNL2", "BNL3", "NB"} {
		if err := run(input{program: "ear"}, 10000, 1, 8<<10, 32, 2, "around", "", f, 5, 4, 2, 0, ""); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(input{program: "nope"}, 100, 1, 8<<10, 32, 2, "allocate", "", "", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("unknown program accepted")
	}
	if err := run(input{program: "ear"}, 100, 1, 8<<10, 32, 2, "sideways", "", "", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("unknown write policy accepted")
	}
	if err := run(input{program: "ear"}, 100, 1, 8<<10, 32, 2, "allocate", "", "WARP", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if err := run(input{program: "ear"}, 100, 1, 999, 32, 2, "allocate", "", "", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("invalid cache size accepted")
	}
}

func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	native := dir + "/t.trace"
	if err := os.WriteFile(native, []byte("0 0x1000 4 R\n3 0x1020 4 W\n7 0x1000 4 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(input{traceFile: native}, 100, 1, 8<<10, 32, 2, "allocate", "", "", 10, 4, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	din := dir + "/t.din"
	if err := os.WriteFile(din, []byte("0 1000\n1 1004\n2 400\n0 2000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(input{traceFile: din, dinero: true}, 100, 1, 8<<10, 32, 2, "allocate", "", "BNL3", 10, 4, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(input{traceFile: dir + "/missing"}, 100, 1, 8<<10, 32, 2, "allocate", "", "", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if err := run(input{traceFile: din}, 100, 1, 8<<10, 32, 2, "allocate", "", "", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("dinero file parsed as native format")
	}
}

// TestRunWritesTrace checks -trace: a multi-feature replay records one
// "sim_job" span for its one cache pass and one "sim_replay" span per
// feature; a profile-only run still writes a well-formed (empty) event
// array.
func TestRunWritesTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/trace.json"
	if err := run(input{program: "ear"}, 5000, 1, 8<<10, 32, 2, "allocate", "", "FS,BNL3", 10, 4, 0, 2, tracePath); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, ev := range readTrace(t, tracePath) {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event %+v", ev)
		}
		spans[ev.Name]++
	}
	if want := map[string]int{"sim_job": 1, "sim_replay": 2}; !reflect.DeepEqual(spans, want) {
		t.Fatalf("trace spans %v, want %v (one cache pass, one replay per feature)", spans, want)
	}

	empty := dir + "/empty.json"
	if err := run(input{program: "ear"}, 1000, 1, 8<<10, 32, 2, "allocate", "", "", 10, 4, 0, 0, empty); err != nil {
		t.Fatal(err)
	}
	if events := readTrace(t, empty); len(events) != 0 {
		t.Fatalf("profile-only trace has %d spans, want 0", len(events))
	}
}

func readTrace(t *testing.T, path string) []struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
} {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace not a JSON event array: %v\n%s", err, data)
	}
	return events
}

func TestInputTruncatesToRefs(t *testing.T) {
	dir := t.TempDir()
	p := dir + "/t.trace"
	if err := os.WriteFile(p, []byte("0 0x0 4 R\n1 0x20 4 R\n2 0x40 4 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, err := input{traceFile: p}.load(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("loaded %d refs, want truncation to 2", len(refs))
	}
}

func TestRunMultiFeature(t *testing.T) {
	// A comma list and "all" replay every feature over one shared trace
	// on the pool and render the comparison table.
	if err := run(input{program: "ear"}, 5000, 1, 8<<10, 32, 2, "allocate", "", "FS,BNL3", 10, 4, 0, 2, ""); err != nil {
		t.Fatalf("feature list: %v", err)
	}
	if err := run(input{program: "ear"}, 5000, 1, 8<<10, 32, 2, "allocate", "", "all", 10, 4, 0, 0, ""); err != nil {
		t.Fatalf("feature all: %v", err)
	}
	if err := run(input{program: "ear"}, 100, 1, 8<<10, 32, 2, "allocate", "", "FS,WARP", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("bad feature in list accepted")
	}
}

func TestRunHierarchyMode(t *testing.T) {
	if err := run(input{program: "ear"}, 5000, 1, 8<<10, 32, 2, "allocate", "64K:4:32,256K:8:64", "", 10, 4, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	// -levels and -feature are mutually exclusive.
	if err := run(input{program: "ear"}, 100, 1, 8<<10, 32, 2, "allocate", "64K:4:32", "FS", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("-levels with -feature accepted")
	}
	// Shrinking level sizes violate hierarchy monotonicity.
	if err := run(input{program: "ear"}, 100, 1, 8<<10, 32, 2, "allocate", "4K:4:32", "", 10, 4, 0, 0, ""); err == nil {
		t.Fatal("L2 smaller than L1 accepted")
	}
}

func TestParseLevels(t *testing.T) {
	cfgs, err := parseLevels("64K:4:32, 1M:0:64")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Size != 64<<10 || cfgs[0].Assoc != 4 || cfgs[0].LineSize != 32 ||
		cfgs[1].Size != 1<<20 || cfgs[1].Assoc != 0 || cfgs[1].LineSize != 64 {
		t.Fatalf("parsed %+v", cfgs)
	}
	for _, bad := range []string{"", "64K:4", "64K:4:32:1", "x:4:32", "64K:-1:32", "64K:4:zero", "0:4:32"} {
		if _, err := parseLevels(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
