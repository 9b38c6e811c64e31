package simjob

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"tradeoff/internal/cache"
	"tradeoff/internal/memory"
	"tradeoff/internal/model"
	"tradeoff/internal/obs"
	"tradeoff/internal/stall"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// testGrid is a small multi-dimension grid: 2 programs × 6 features ×
// 2 βm = 24 points on one 8KiB/32B/4B geometry.
func testGrid() Grid {
	return Grid{
		Programs: []string{"nasa7", "ear"},
		Refs:     5_000,
		Features: []string{"FS", "BL", "BNL1", "BNL2", "BNL3", "NB"},
		BetaM:    []int64{4, 10},
	}
}

// serialGrid replays the grid the pre-simjob way: one cold replay per
// point, in enumeration order, no pool, no memoization.
func serialGrid(t *testing.T, g Grid) []PointResult {
	t.Helper()
	g.SetDefaults()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	pts := g.Enumerate()
	out := make([]PointResult, len(pts))
	for i, p := range pts {
		job, err := g.job(p)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := job.Trace.Materialize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := stall.Run(job.Cfg, refs)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = PointResult{Point: p, Source: "replay", Result: res}
	}
	return out
}

// TestParallelMatchesSerialByteIdentical is the golden test of the
// acceptance criteria: the pool's output, serialized both as JSON and
// as CSV, must be byte-identical to a serial replay — for any worker
// count.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	g := testGrid()
	want := serialGrid(t, g)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := WriteCSV(&wantCSV, want); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		got, err := NewRunner().RunGrid(context.Background(), g, workers)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("workers=%d: parallel JSON differs from serial replay", workers)
		}
		var gotCSV bytes.Buffer
		if err := WriteCSV(&gotCSV, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("workers=%d: parallel CSV differs from serial replay", workers)
		}
	}
}

// TestTraceMemoized pins the tentpole's memoization contract: a grid
// touching two programs materializes exactly two traces, however many
// design points replay them, and a second grid on the same runner
// re-materializes nothing.
func TestTraceMemoized(t *testing.T) {
	r := NewRunner()
	g := testGrid()
	if _, err := r.RunGrid(context.Background(), g, 8); err != nil {
		t.Fatal(err)
	}
	if got := r.Traces().Generated(); got != 2 {
		t.Fatalf("generated %d traces for a 2-program grid, want 2", got)
	}
	g.BetaM = []int64{6} // different design points, same traces
	if _, err := r.RunGrid(context.Background(), g, 8); err != nil {
		t.Fatal(err)
	}
	if got := r.Traces().Generated(); got != 2 {
		t.Fatalf("second grid re-materialized traces: generated = %d, want 2", got)
	}
}

// TestTraceCacheBoundedByBytes pins the trace cache's byte budget:
// specs that fit stay resident and are generated exactly once, and a
// spec past the budget evicts the least recently used trace, which is
// regenerated on its next use.
func TestTraceCacheBoundedByBytes(t *testing.T) {
	const refs = 1_000
	spec := func(seed uint64) TraceSpec { return TraceSpec{Program: "nasa7", Seed: seed, Refs: refs} }
	tc := newTraceCache(2 * refs * int64(unsafe.Sizeof(trace.Ref{}))) // room for two traces
	generated := func(specs ...TraceSpec) int64 {
		t.Helper()
		for _, s := range specs {
			got, err := tc.Get(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != refs {
				t.Fatalf("%+v: %d refs, want %d", s, len(got), refs)
			}
		}
		return tc.Generated()
	}
	if n := generated(spec(1), spec(2), spec(1), spec(2)); n != 2 {
		t.Fatalf("two in-budget specs generated %d times, want 2", n)
	}
	// Seed 3 evicts seed 1, the least recently used; seed 2 stays.
	if n := generated(spec(3), spec(2)); n != 3 {
		t.Fatalf("after a third spec: generated = %d, want 3", n)
	}
	if n := generated(spec(1)); n != 4 {
		t.Fatalf("evicted spec was not regenerated: generated = %d, want 4", n)
	}

	// The default budget holds a stall grid's resident traces with room
	// to spare: repeated use of one spec never regenerates it.
	tc = NewTraceCache()
	if n := generated(spec(1), spec(2), spec(1), spec(2)); n != 2 {
		t.Fatalf("default cache generated %d traces for two specs, want 2", n)
	}
}

// TestWarmDeterministic checks the warmed-cache path: results differ
// from the cold replay (the warm state removes cold-start misses) but
// are identical across runs and worker counts.
func TestWarmDeterministic(t *testing.T) {
	g := testGrid()
	g.Warm = true

	first, err := NewRunner().RunGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewRunner().RunGrid(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("warm replay not deterministic at point %d:\n%+v\n%+v", i, first[i], again[i])
		}
	}

	cold := serialGrid(t, testGrid())
	differs := false
	for i := range first {
		if first[i].Result.Misses != cold[i].Result.Misses {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("warmed replay produced identical miss counts to cold replay on every point")
	}
}

// TestWarmMatchesHandWarmed pins what warm mode measures: every grid
// point equals stall.RunWarm from a cache the test warms itself with
// one pass over the trace, its statistics reset.
func TestWarmMatchesHandWarmed(t *testing.T) {
	g := testGrid()
	g.CacheKB = []int{4, 8}
	g.Warm = true
	got, err := NewRunner().RunGrid(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.SetDefaults()
	for i, p := range g.Enumerate() {
		job, err := g.job(p)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := job.Trace.Materialize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c := cache.MustNew(job.Cfg.Cache)
		for _, ref := range refs {
			c.Access(ref.Addr, ref.Write)
		}
		c.ResetStats()
		want, err := stall.RunWarm(job.Cfg, c, refs)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Point != p || got[i].Result != want {
			t.Fatalf("point %d: warm grid %+v, hand-warmed RunWarm %+v at %+v", i, got[i], want, p)
		}
	}
}

// groupedJobs returns stall jobs over 2 programs × 2 cache geometries
// × 2 features × 2 βm, interleaved so that no two consecutive jobs
// share a (trace, geometry): grouping must not rely on contiguity.
func groupedJobs() []Job {
	var jobs []Job
	for _, betaM := range []int64{4, 10} {
		for _, f := range []stall.Feature{stall.BL, stall.NB} {
			for _, kb := range []int{4, 16} {
				for _, prog := range []string{"nasa7", "ear"} {
					jobs = append(jobs, Job{
						Trace: TraceSpec{Program: prog, Seed: 3, Refs: 3_000},
						Cfg: stall.Config{
							Cache:   cache.Config{Size: kb << 10, LineSize: 32, Assoc: 2},
							Memory:  memory.Config{BetaM: betaM, BusWidth: 4},
							Feature: f,
							MSHRs:   2,
						},
					})
				}
			}
		}
	}
	return jobs
}

// TestRunGroupsMatchPerJob checks grouped measurement against one
// stall.Run per job, in job order, for a serial and a wide pool.
func TestRunGroupsMatchPerJob(t *testing.T) {
	jobs := groupedJobs()
	want := make([]stall.Result, len(jobs))
	for i, job := range jobs {
		refs, err := job.Trace.Materialize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = stall.Run(job.Cfg, refs); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 8} {
		got, err := NewRunner().Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: grouped results differ from per-job stall.Run", workers)
		}
	}
}

// spanArgs returns the args of every span named name in the tracer's
// export.
func spanArgs(t *testing.T, tracer *obs.Tracer, name string) []map[string]any {
	t.Helper()
	var events []struct {
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(tracer.JSON(), &events); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, ev := range events {
		if ev.Name == name {
			out = append(out, ev.Args)
		}
	}
	return out
}

// TestRunSpanPerGeometry pins a traced Run's shape: exactly one
// sim_job span per distinct (trace, geometry), naming the program,
// geometry and how many configurations replayed its one cache pass,
// and one sim_replay span per job, naming its feature.
func TestRunSpanPerGeometry(t *testing.T) {
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	if _, err := NewRunner().Run(ctx, groupedJobs(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	type geometry struct {
		program       string
		cacheKB, line float64
	}
	seen := map[geometry]float64{}
	for _, args := range spanArgs(t, tracer, "sim_job") {
		prog, _ := args["program"].(string)
		kb, _ := args["cache_kb"].(float64)
		line, _ := args["line_bytes"].(float64)
		configs, ok := args["configs"].(float64)
		if !ok {
			t.Fatalf("sim_job args %v lack configs", args)
		}
		g := geometry{prog, kb, line}
		if _, dup := seen[g]; dup {
			t.Fatalf("two sim_job spans for %+v", g)
		}
		seen[g] = configs
	}
	want := map[geometry]float64{
		{"nasa7", 4, 32}: 4, {"nasa7", 16, 32}: 4,
		{"ear", 4, 32}: 4, {"ear", 16, 32}: 4,
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("sim_job spans %v, want %v", seen, want)
	}
	replays := map[string]int{}
	for _, args := range spanArgs(t, tracer, "sim_replay") {
		f, _ := args["feature"].(string)
		replays[f]++
	}
	if want := map[string]int{"BL": 8, "NB": 8}; !reflect.DeepEqual(replays, want) {
		t.Fatalf("sim_replay spans per feature %v, want %v", replays, want)
	}
}

// TestRunCancellation checks a cancelled context stops the pool and
// surfaces the context error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewRunner().RunGrid(ctx, testGrid(), 4)
	if err == nil {
		t.Fatal("cancelled grid run returned no error")
	}
	if ctx.Err() == nil || err.Error() != ctx.Err().Error() {
		t.Fatalf("err = %v, want %v", err, ctx.Err())
	}
}

// TestRunBadJob checks a failing job cancels the pool and reports the
// underlying error.
func TestRunBadJob(t *testing.T) {
	r := NewRunner()
	jobs := []Job{{
		Trace: TraceSpec{Program: "no-such-program", Seed: 1, Refs: 10},
	}}
	if _, err := r.Run(context.Background(), jobs, Options{Workers: 2}); err == nil {
		t.Fatal("unknown program produced no error")
	}
}

// TestRunGridRejectsBeforeWork checks an exact-mode grid with a point
// outside the cache's or the memory model's domain fails with that
// package's error before it generates a trace or runs a cache pass.
func TestRunGridRejectsBeforeWork(t *testing.T) {
	for _, c := range []struct {
		grid Grid
		want string
	}{
		{Grid{CacheKB: []int{24}}, "cache: size 24576 is not a positive power of two"},
		{Grid{LineBytes: []int{24}}, "cache: line size 24 is not a positive power of two"},
		{Grid{BetaM: []int64{0}}, "memory: βm = 0, want >= 1"},
	} {
		c.grid.Programs, c.grid.Refs = []string{"ear", "nasa7"}, 5_000
		r := NewRunner()
		if _, err := r.RunGrid(context.Background(), c.grid, 2); err == nil || err.Error() != c.want {
			t.Errorf("grid %+v: err = %v, want %q", c.grid, err, c.want)
		}
		if n := r.Traces().Generated(); n != 0 {
			t.Errorf("grid failing with %q generated %d traces first, want 0", c.want, n)
		}
	}
}

// TestRunRefsMatchesDirect checks the caller-supplied-trace path gives
// exactly what stall.Run gives, in configuration order, from one cache
// pass per distinct cache.
func TestRunRefsMatchesDirect(t *testing.T) {
	refs := trace.Collect(trace.MustProgram("doduc", 7), 4_000)
	var cfgs []stall.Config
	g := Grid{CacheKB: []int{8, 16}}
	g.SetDefaults()
	for _, p := range g.Enumerate()[:12] {
		job, err := g.job(p)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, job.Cfg)
	}
	tracer := obs.NewTracer()
	got, err := RunRefs(obs.WithTracer(context.Background(), tracer), refs, cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Six features on each of two caches: one sim_job span per cache
	// for its one cache pass, and one sim_replay span per configuration.
	configs := map[float64]float64{}
	jobs := spanArgs(t, tracer, "sim_job")
	for _, args := range jobs {
		configs[args["cache_kb"].(float64)] = args["configs"].(float64)
	}
	if want := map[float64]float64{8: 6, 16: 6}; len(jobs) != 2 || !reflect.DeepEqual(configs, want) {
		t.Fatalf("sim_job spans %v, want one per cache_kb replaying %v configs", jobs, want)
	}
	replays := map[string]int{}
	for _, args := range spanArgs(t, tracer, "sim_replay") {
		f, _ := args["feature"].(string)
		replays[f]++
	}
	if want := map[string]int{"FS": 2, "BL": 2, "BNL1": 2, "BNL2": 2, "BNL3": 2, "NB": 2}; !reflect.DeepEqual(replays, want) {
		t.Fatalf("sim_replay spans per feature %v, want %v", replays, want)
	}
	for i, cfg := range cfgs {
		want, err := stall.Run(cfg, refs)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("cfg %d: pooled result differs from direct stall.Run:\n%+v\n%+v", i, got[i], want)
		}
	}
}

// TestParseGridRejectsBadInput spot-checks the domain validation the
// service relies on.
func TestParseGridRejectsBadInput(t *testing.T) {
	bad := []string{
		`{"programs": ["not-a-program"]}`,
		`{"features": ["FSX"]}`,
		`{"write_miss": "write-back"}`,
		`{"refs": -1}`,
		`{"mshrs": -2}`,
		`{"assoc": -1}`,
		`{"mode": "sim"}`,
		`{"mode": "Model"}`,
		`{"wbuf_depths": [-2]}`,
		`{"pipelined": true}`,
		`not json`,
	}
	for _, in := range bad {
		if _, err := ParseGrid([]byte(in)); err == nil {
			t.Fatalf("ParseGrid(%s) accepted bad input", in)
		}
	}
	if _, err := ParseGrid([]byte(ExampleGrid)); err != nil {
		t.Fatalf("ParseGrid(ExampleGrid): %v", err)
	}
}

// TestCheckLimits exercises the service's abuse bounds.
func TestCheckLimits(t *testing.T) {
	g := testGrid()
	g.SetDefaults()
	if err := g.CheckLimits(DefaultLimits); err != nil {
		t.Fatalf("test grid exceeds default limits: %v", err)
	}
	if err := g.CheckLimits(Limits{MaxPoints: 3}); err == nil {
		t.Fatal("24-point grid passed MaxPoints=3")
	}
	if err := g.CheckLimits(Limits{MaxRefs: 100}); err == nil {
		t.Fatal("5000-ref grid passed MaxRefs=100")
	}
	if err := g.CheckLimits(Limits{MaxCacheKB: 4}); err == nil {
		t.Fatal("8KiB grid passed MaxCacheKB=4")
	}
}

// TestCanonicalStable checks the memoization key is insensitive to
// spelled-out defaults.
func TestCanonicalStable(t *testing.T) {
	var implicit Grid
	explicit := Grid{Refs: 30_000, Seed: 1994, Assoc: 2, WriteMiss: "allocate"}
	a, err := implicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical keys differ:\n%s\n%s", a, b)
	}
}

// TestGridModeModel pins the stall grid's mode knob: mode "model"
// prices every point from the analytic tier (stamped "an:<program>",
// byte-identical to calling model.EstimateStall directly), "auto"
// resolves the same way while every named program is covered, an
// unknown mode is rejected at validation, and a point outside the
// memory model's domain fails with the same error in every mode.
func TestGridModeModel(t *testing.T) {
	g := testGrid()
	g.Mode = sweep.ModeModel
	r := NewRunner()
	got, err := r.RunGrid(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	gd := g
	gd.SetDefaults()
	for _, pr := range got {
		if want := "an:" + pr.Program; pr.Source != want {
			t.Fatalf("mode=model point source = %q, want %q", pr.Source, want)
		}
		j, err := gd.job(pr.Point)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := model.EstimateStall(context.Background(), pr.Program, gd.Seed, gd.Refs, j.Cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Result != direct {
			t.Fatalf("mode=model point %+v differs from direct EstimateStall:\n%+v\nvs\n%+v", pr.Point, pr.Result, direct)
		}
	}

	g.Mode = sweep.ModeAuto
	auto, err := r.RunGrid(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range auto {
		if auto[i] != got[i] {
			t.Fatalf("mode=auto point %d differs from mode=model (all programs are covered)", i)
		}
	}
	if r.Traces().Generated() != 0 {
		t.Fatalf("analytic modes materialized %d traces, want 0", r.Traces().Generated())
	}

	g.Mode = "approximate"
	if _, err := r.RunGrid(context.Background(), g, 4); err == nil {
		t.Fatal("unknown mode accepted")
	}

	// A βm of 0 is outside the memory model's domain: every mode
	// rejects the grid with the replay's error.
	g.BetaM = []int64{0, 4}
	for _, mode := range []string{sweep.ModeExact, sweep.ModeModel, sweep.ModeAuto} {
		g.Mode = mode
		_, err := r.RunGrid(context.Background(), g, 4)
		if err == nil || err.Error() != "memory: βm = 0, want >= 1" {
			t.Errorf("mode %q, beta_m [0, 4]: err = %v, want the memory model's βm error", mode, err)
		}
	}
}
