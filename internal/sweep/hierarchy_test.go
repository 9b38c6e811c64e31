package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

func hierCfg(source string) Config {
	return Config{
		CacheKB: []int{4, 8}, LineBytes: []int{32}, BusBits: []int{64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: source, SimRefs: 50_000,
		Levels: []LevelAxes{
			{CacheKB: []int{32, 64}, LatencyNS: 90},
			{CacheKB: []int{256}, LatencyNS: 180},
		},
	}
}

func TestHierarchySweepEnumeration(t *testing.T) {
	cfg := hierCfg("model")
	ds, err := Run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 L1 sizes × 2 L2 sizes × 1 L3 size, all monotone: 4 points.
	if len(ds) != 4 {
		t.Fatalf("designs = %d, want 4", len(ds))
	}
	for _, d := range ds {
		if len(d.Levels) != 2 {
			t.Fatalf("design %+v: %d deeper levels, want 2", d, len(d.Levels))
		}
		// Inherited line size.
		if d.Levels[0].LineBytes != d.LineBytes || d.Levels[1].LineBytes != d.LineBytes {
			t.Fatalf("levels did not inherit the L1 line: %+v", d)
		}
		// Monotone capacities.
		if d.Levels[0].CacheKB <= d.CacheKB || d.Levels[1].CacheKB <= d.Levels[0].CacheKB {
			t.Fatalf("non-monotone hierarchy enumerated: %+v", d)
		}
		// Area sums the levels.
		sum := d.Levels[0].AreaRBE + d.Levels[1].AreaRBE
		if d.AreaRBE <= sum || d.Levels[0].AreaRBE <= 0 {
			t.Fatalf("area %g not above deeper levels' %g: %+v", d.AreaRBE, sum, d)
		}
		if d.GlobalHitRatio < d.HitRatio {
			t.Fatalf("global hit ratio below L1's: %+v", d)
		}
	}
}

func TestHierarchySweepMonotonicitySkips(t *testing.T) {
	// An L2 axis that includes sizes at or below L1's: those combos
	// vanish instead of erroring.
	cfg := Config{
		CacheKB: []int{8}, LineBytes: []int{32}, BusBits: []int{64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		Levels: []LevelAxes{{CacheKB: []int{4, 8, 64}, LatencyNS: 90}},
	}
	ds, err := Run(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Levels[0].CacheKB != 64 {
		t.Fatalf("expected only the 64K L2 to survive, got %+v", ds)
	}
	// All-skipped is an empty-space error, like the line < 2D case.
	cfg.Levels[0].CacheKB = []int{4, 8}
	if _, err := Run(context.Background(), cfg, 0); err == nil {
		t.Fatal("fully non-monotone space did not error")
	}
}

func TestHierarchySweepBeatsFlat(t *testing.T) {
	// Adding levels can only reduce mean delay at equal L1: every
	// hierarchy design must beat (or tie) the flat design with the
	// same L1 and bus, and costs strictly more area.
	hier := hierCfg("mrc:ear")
	flat := hier
	flat.Levels = nil
	hd, err := Run(context.Background(), hier, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := Run(context.Background(), flat, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hd {
		for _, f := range fd {
			if h.CacheKB != f.CacheKB || h.LineBytes != f.LineBytes || h.BusBits != f.BusBits {
				continue
			}
			if h.Delay > f.Delay+1e-9 {
				t.Errorf("hierarchy %+v slower than flat %+v", h, f)
			}
			if h.AreaRBE <= f.AreaRBE {
				t.Errorf("hierarchy %+v not larger than flat %+v", h, f)
			}
			if h.HitRatio != f.HitRatio {
				t.Errorf("L1 hit ratio drifted: %g vs flat %g", h.HitRatio, f.HitRatio)
			}
		}
	}
}

func TestHierarchySweepWorth(t *testing.T) {
	// The stack property makes a strictly bigger level catch some of
	// the miss stream on the ear curve, so each level's worth must be
	// positive, and the local ratios must be consistent with the
	// global: g = 1 − Π(1 − local_i).
	ds, err := Run(context.Background(), hierCfg("an:ear"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		miss := 1 - d.HitRatio
		for _, l := range d.Levels {
			if l.WorthHR <= 0 {
				t.Errorf("level %+v of %+v priced non-positive", l, d)
			}
			if l.LocalHitRatio < 0 || l.LocalHitRatio > 1 {
				t.Errorf("local hit ratio out of range: %+v", l)
			}
			miss *= 1 - l.LocalHitRatio
		}
		if g := 1 - miss; g < d.GlobalHitRatio-1e-9 || g > d.GlobalHitRatio+1e-9 {
			t.Errorf("global hit ratio %g inconsistent with locals (%g): %+v", d.GlobalHitRatio, g, d)
		}
	}
}

// TestHierarchySweepMeasured is the oracle for hierarchy "sim:"
// sweeps, which replay the request's one trace through a real
// cache.Hierarchy per design: every design's L1, local and global hit
// ratios must equal a direct replay of the same trace, for two- and
// three-level grids at any pool size.
func TestHierarchySweepMeasured(t *testing.T) {
	const refs = 20_000
	trc := trace.Collect(trace.MustWorkload("ear", 1994), refs)
	// Small, direct-mapped deeper levels make every level's assoc
	// matter to its local hit ratio.
	for _, levels := range [][]LevelAxes{
		{{CacheKB: []int{16}, Assoc: 1, LatencyNS: 90}},
		{
			{CacheKB: []int{16}, LineBytes: []int{64}, Assoc: 1, LatencyNS: 60},
			{CacheKB: []int{64}, LineBytes: []int{128}, Assoc: 4, LatencyNS: 120},
		},
	} {
		cfg := Config{
			CacheKB: []int{4, 8}, LineBytes: []int{16, 32}, BusBits: []int{64},
			LatencyNS: 360, TransferNS: 60, CPUNS: 30,
			HitSource: "sim:ear", SimRefs: refs,
			Levels: levels,
		}
		for _, workers := range []int{1, 8} {
			ds, err := Run(context.Background(), cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds) != 4 {
				t.Fatalf("%d levels: %d designs, want 4", 1+len(levels), len(ds))
			}
			for _, d := range ds {
				cfgs := []cache.Config{{Size: d.CacheKB << 10, LineSize: d.LineBytes, Assoc: 2}}
				for i, l := range d.Levels {
					cfgs = append(cfgs, cache.Config{Size: l.CacheKB << 10, LineSize: l.LineBytes, Assoc: levels[i].Assoc})
				}
				h, err := cache.NewHierarchy(cfgs...)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range trc {
					h.Access(r.Addr, r.Write)
				}
				s := h.Stats()
				if d.HitRatio != s.L1HitRatio() || d.GlobalHitRatio != s.GlobalHitRatio() {
					t.Errorf("workers %d: design %+v disagrees with direct replay %+v", workers, d, s)
				}
				for i, l := range d.Levels {
					if l.LocalHitRatio != s.LocalHitRatio(i+1) {
						t.Errorf("workers %d: %dKB/%dB level %d local hit ratio %v, direct replay %v",
							workers, d.CacheKB, d.LineBytes, i+2, l.LocalHitRatio, s.LocalHitRatio(i+1))
					}
				}
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(ctx, cfg, 1); err == nil {
			t.Fatal("cancelled context accepted")
		}
	}
}

// TestHierarchyCurveLevelsAtOwnAssoc pins that the curve tiers price
// a deeper level at its own associativity, as "sim:" and the area
// model do: the L2's local hit ratio is the stack-property share of
// the curve corrected at the L2's assoc, so assoc 1 and 8 differ. The
// tiers used to correct every level at the top-level assoc.
func TestHierarchyCurveLevelsAtOwnAssoc(t *testing.T) {
	const refs = 20_000
	exact, err := mrc.ProfileRefs(trace.Collect(trace.MustWorkload("ear", 1994), refs), 32)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := model.CurveFor(model.Spec{Workload: "ear", Seed: 1994, Refs: refs, LineSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for source, c := range map[string]*mrc.Curve{"mrc:ear": exact, "an:ear": analytic} {
		l1 := c.HitRatioAssoc(4<<10, 2)
		got := map[int]float64{}
		for _, assoc := range []int{1, 8} {
			cfg := Config{
				CacheKB: []int{4}, LineBytes: []int{32}, BusBits: []int{64},
				LatencyNS: 360, TransferNS: 60, CPUNS: 30,
				HitSource: source, SimRefs: refs,
				Levels: []LevelAxes{{CacheKB: []int{32}, Assoc: assoc, LatencyNS: 90}},
			}
			ds, err := Run(context.Background(), cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			got[assoc] = ds[0].Levels[0].LocalHitRatio
			if want := (c.HitRatioAssoc(32<<10, assoc) - l1) / (1 - l1); got[assoc] != want {
				t.Errorf("%s: L2 at assoc %d has local hit ratio %v, want %v from the curve at that assoc",
					source, assoc, got[assoc], want)
			}
		}
		if got[1] == got[8] {
			t.Errorf("%s: L2 local hit ratio %v at both assoc 1 and 8", source, got[1])
		}
	}
}

// TestCurveSearchLooksUpEachLineOnce pins that a curve-tier search,
// whose 40 designs share 10 distinct geometries over 2 line sizes,
// looks each line's curve up once: one memo span per line size, where
// pricing every level of every design used to look up 84.
func TestCurveSearchLooksUpEachLineOnce(t *testing.T) {
	for _, source := range []string{"mrc:ear", "an:ear"} {
		tracer := obs.NewTracer()
		ctx := obs.WithTracer(context.Background(), tracer)
		cfg := OptimizeConfig{
			Config: Config{
				CacheKB: []int{4, 8}, LineBytes: []int{16, 32}, BusBits: []int{32, 64},
				LatencyNS: 360, TransferNS: 60, CPUNS: 30,
				SimRefs: 20_000, HitSource: source,
				Levels: []LevelAxes{
					{CacheKB: []int{32, 64}, LatencyNS: 90},
					{CacheKB: []int{256}, LatencyNS: 180},
				},
			},
			AreaBudget: 2e7,
		}
		res, err := Optimize(ctx, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != 40 {
			t.Fatalf("%s: %d designs, want 40", source, res.Total)
		}
		if _, counts := tracedEvents(t, tracer); counts["memo"] != 2 {
			t.Errorf("%s: %d memo spans, want 2, one per line size", source, counts["memo"])
		}
	}
}

// TestLineTablesPriceOnlyWhatIsHit pins that a line table opens its
// line once and prices each geometry on its own first hit, from
// whichever worker asks first: geometries nobody hits are never
// priced, and one hit by many workers is priced once.
func TestLineTablesPriceOnlyWhatIsHit(t *testing.T) {
	var mu sync.Mutex
	opened, priced := 0, map[int]int{}
	ts := lineTables{byLine: map[int]*lineTable{}, open: func(_ context.Context, line int, geoms []shape) (func(i int) cache.SizeRatio, error) {
		mu.Lock()
		opened++
		mu.Unlock()
		return func(i int) cache.SizeRatio {
			mu.Lock()
			priced[i]++
			mu.Unlock()
			return cache.SizeRatio{HitRatio: float64(geoms[i].size) / float64(geoms[i].assoc)}
		}, nil
	}}
	for _, g := range []cache.Config{{Size: 4096, LineSize: 32, Assoc: 2}, {Size: 8192, LineSize: 32, Assoc: 2}, {Size: 4096, LineSize: 32, Assoc: 8}} {
		ts.add(g)
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			size, assoc := 4096, 2
			if w%2 == 1 {
				assoc = 8
			}
			if hr, err := ts.hit(context.Background(), size, 32, assoc); err != nil || hr != float64(size)/float64(assoc) {
				t.Errorf("hit(%d, 32, %d) = %v, %v", size, assoc, hr, err)
			}
		}()
	}
	wg.Wait()
	if opened != 1 || priced[0] != 1 || priced[2] != 1 || priced[1] != 0 {
		t.Errorf("line opened %d times, geometries priced %v; want 1 opening, geometries 0 and 2 priced once each, 1 never", opened, priced)
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	base := hierCfg("model")
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty level cache_kb", func(c *Config) { c.Levels[0].CacheKB = nil }},
		{"non-positive level cache_kb", func(c *Config) { c.Levels[0].CacheKB = []int{0} }},
		{"zero level cache_kb beside a valid one", func(c *Config) { c.Levels[0].CacheKB = []int{0, 64} }},
		{"non-positive level line", func(c *Config) { c.Levels[0].LineBytes = []int{-16} }},
		{"negative level line", func(c *Config) { c.Levels[0].LineBytes = []int{-32} }},
		{"negative level assoc", func(c *Config) { c.Levels[0].Assoc = -1 }},
		{"zero level latency", func(c *Config) { c.Levels[0].LatencyNS = 0 }},
		{"decreasing latency", func(c *Config) { c.Levels[1].LatencyNS = 45 }},
		{"level slower than memory", func(c *Config) { c.Levels[1].LatencyNS = 1000 }},
	} {
		cfg := base
		cfg.Levels = append([]LevelAxes(nil), base.Levels...)
		tc.mutate(&cfg)
		cfg.SetDefaults()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestHierarchyCheckLimits(t *testing.T) {
	cfg := hierCfg("model")
	cfg.SetDefaults()
	// 2 × 1 × 1 × (2×1) × (1×1) = 4 enumerated upper bound.
	if err := cfg.CheckLimits(Limits{MaxPoints: 4}); err != nil {
		t.Fatalf("4-point hierarchy space failed a 4-point limit: %v", err)
	}
	if err := cfg.CheckLimits(Limits{MaxPoints: 3}); err == nil {
		t.Fatal("4-point hierarchy space passed a 3-point limit")
	}
	if err := cfg.CheckLimits(Limits{MaxCacheKB: 128}); err == nil {
		t.Fatal("256 KiB level passed a 128 KiB limit")
	}
}

func TestHierarchyCSV(t *testing.T) {
	ds, err := Run(context.Background(), hierCfg("model"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasSuffix(lines[0], ",levels") {
		t.Fatalf("hierarchy CSV header missing levels column: %q", lines[0])
	}
	if !strings.Contains(lines[1], ",32:32/256:32") && !strings.Contains(lines[1], ",64:32/256:32") {
		t.Fatalf("levels cell missing: %q", lines[1])
	}
	// Flat output keeps the original header, byte for byte.
	flat := hierCfg("model")
	flat.Levels = nil
	fds, err := Run(context.Background(), flat, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteCSV(&buf, fds); err != nil {
		t.Fatal(err)
	}
	if got := strings.SplitN(buf.String(), "\n", 2)[0]; got != "cache_kb,line_bytes,bus_bits,hit_ratio,hit_source,delay_per_ref,area_rbe,pins,pareto" {
		t.Fatalf("flat CSV header changed: %q", got)
	}
}

func TestHierarchyCanonicalStability(t *testing.T) {
	// A flat config's canonical key must not mention levels at all —
	// pre-refactor memo keys and goldens depend on it.
	flat := Config{
		CacheKB: []int{4}, LineBytes: []int{32}, BusBits: []int{64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
	}
	key, err := flat.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(key, []byte("levels")) {
		t.Fatalf("flat canonical key mentions levels: %s", key)
	}
	hier := hierCfg("model")
	hkey, err := hier.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(hkey, []byte(`"levels"`)) {
		t.Fatalf("hierarchy canonical key missing levels: %s", hkey)
	}
}
