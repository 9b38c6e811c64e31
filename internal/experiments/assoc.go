package experiments

import (
	"fmt"

	"tradeoff/internal/area"
	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/plot"
	"tradeoff/internal/trace"
)

// Associativity (E23) applies the methodology's currency to cache
// organization itself: the hit ratio gained by associativity (and by a
// Jouppi victim buffer, the paper's reference [7]) is compared with
// what the Table 3 features are worth at the same design point, and
// with the chip area each option costs. The point the unified currency
// makes: a 4-entry victim buffer buys conflict-miss relief comparable
// to doubling associativity at a tiny fraction of the area of the
// cache-size route to the same hit ratio.
func Associativity(o Options) ([]Artifact, error) {
	const (
		size  = 8 << 10
		line  = 32
		d     = 4.0
		betaM = 10.0
	)
	refs := trace.Collect(trace.MustWorkload(trace.Zipf, o.seed()), o.refsPerProgram())

	type config struct {
		name  string
		hr    float64
		extra float64 // extra rbe over the direct-mapped base
	}
	var configs []config

	baseGeom := area.CacheGeometry{Size: size, LineSize: line, Assoc: 1}
	baseRBE, err := area.RBE(baseGeom)
	if err != nil {
		return nil, err
	}

	measure := func(assoc int) (float64, float64, error) {
		c, err := cache.New(cache.Config{Size: size, LineSize: line, Assoc: assoc})
		if err != nil {
			return 0, 0, err
		}
		p := cache.Measure(c, refs)
		rbe, err := area.RBE(area.CacheGeometry{Size: size, LineSize: line, Assoc: assoc})
		if err != nil {
			return 0, 0, err
		}
		return p.HitRatio, rbe - baseRBE, nil
	}
	for _, assoc := range []int{1, 2, 4} {
		hr, extra, err := measure(assoc)
		if err != nil {
			return nil, err
		}
		configs = append(configs, config{fmt.Sprintf("%d-way", assoc), hr, extra})
	}
	// Direct-mapped plus a 4-entry victim buffer.
	vc, err := cache.NewVictim(cache.Config{Size: size, LineSize: line, Assoc: 1}, 4)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		vc.Access(r.Addr, r.Write)
	}
	// Buffer area: 4 fully-associative lines' worth of storage.
	bufRBE, err := area.RBE(area.CacheGeometry{Size: 4 * line, LineSize: line, Assoc: 0})
	if err != nil {
		return nil, err
	}
	configs = append(configs, config{"1-way + victim(4)", vc.Combined().HitRatio, bufRBE})

	baseHR := configs[0].hr
	t := plot.Table{
		Title:   "Cache organization priced in hit ratio (Zipf workload, 8K, L=32) vs Table 3 features at the same point",
		Columns: []string{"organization", "hit ratio", "dHR vs 1-way", "extra area (rbe)", "features it out-trades"},
	}
	// Feature worths at this design point, for the comparison column.
	type worth struct {
		name string
		dhr  float64
	}
	var worths []worth
	for _, spec := range []core.FeatureSpec{
		{Feature: core.FeatureWriteBuffers},
		{Feature: core.FeatureDoubleBus},
	} {
		tr, err := core.FeatureTradeoff(spec, baseHR, 0.5, line, d, betaM)
		if err != nil {
			return nil, err
		}
		worths = append(worths, worth{spec.Feature.String(), tr.DeltaHR})
	}
	for _, cfg := range configs {
		dhr := cfg.hr - baseHR
		beats := ""
		for _, w := range worths {
			if dhr >= w.dhr {
				if beats != "" {
					beats += ", "
				}
				beats += w.name
			}
		}
		if beats == "" {
			beats = "-"
		}
		t.AddRowf(cfg.name, cfg.hr, dhr, cfg.extra, beats)
	}
	return []Artifact{{ID: "E23", Name: "associativity", Title: t.Title, Table: &t}}, nil
}
