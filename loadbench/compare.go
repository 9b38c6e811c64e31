package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// failRatio is compared beside the BENCHMARK.json metrics: it sits at
// zero on a healthy run, so it gets an absolute band instead of a
// relative one.
var failRatio = metricSpec{Name: "fail_ratio", Unit: "ratio", Better: "lower"}

const failRatioAbs = 0.001

// runs maps workload → metric → one value per run.
type runs map[string]map[string][]float64

// readRuns loads every <workload>-*.json or <workload>.json file of
// dir. Each file holds one run's output; its last non-empty line is
// the result.
func readRuns(dir string) (runs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := runs{}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		workload, _, _ := strings.Cut(name, "-")
		if !knownWorkload(workload) {
			return nil, fmt.Errorf("%s: file name does not start with a workload (%v)", f, workloadNames)
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if res.Attempted < 1 {
			return nil, fmt.Errorf("%s: attempted = %d", f, res.Attempted)
		}
		if out[workload] == nil {
			out[workload] = map[string][]float64{}
		}
		m := out[workload]
		for k, v := range res.Metrics {
			m[k] = append(m[k], v.Value)
		}
		m[failRatio.Name] = append(m[failRatio.Name], float64(res.Failed)/float64(res.Attempted))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// runCompare prints a verdict for every end-to-end metric × workload
// of two sets of runs, one row each, and returns how many regressed.
func runCompare(w io.Writer, root, baseDir, newDir string) (int, error) {
	spec, err := readSpec(root)
	if err != nil {
		return 0, err
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return 0, err
	}
	cur, err := readRuns(newDir)
	if err != nil {
		return 0, err
	}
	regressions := 0
	fmt.Fprintf(w, "%-16s %-17s %5s %14s %7s %14s %7s %8s %7s  %s\n",
		"workload", "metric", "runs", "base median", "iqr", "new median", "iqr", "change", "bound", "verdict")
	for _, wl := range workloadNames {
		if base[wl] == nil && cur[wl] == nil {
			continue
		}
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), failRatio) {
			b, c := base[wl][m.Name], cur[wl][m.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-16s %-17s missing on one side\n", wl, m.Name)
				continue
			}
			bd := band{rel: m.Bound}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.Name == failRatio.Name {
				bd = band{abs: failRatioAbs}
				bound = fmt.Sprintf("+%g", failRatioAbs)
			}
			v := judge(b, c, bd, m.Better == "lower")
			if v == regressed {
				regressions++
			}
			mb, mc := median(b), median(c)
			fmt.Fprintf(w, "%-16s %-17s %2d/%-2d %14.6g %7s %14.6g %7s %8s %7s  %s\n",
				wl, m.Name, len(b), len(c), mb, spreadPct(b), mc, spreadPct(c), changePct(mb, mc), bound, v)
		}
	}
	return regressions, nil
}

// spreadPct is the interquartile range as a share of the median.
func spreadPct(xs []float64) string {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return fmt.Sprintf("%.2g", q3-q1)
	}
	return fmt.Sprintf("%.1f%%", 100*(q3-q1)/m)
}

func changePct(base, cur float64) string {
	if base == 0 {
		return fmt.Sprintf("%+.2g", cur-base)
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
}
