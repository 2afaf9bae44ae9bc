package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Compare mode reads two result sets (directories of the per-run
// records perfbench writes) and classifies every (workload, end-to-end
// metric) pair as improved, unchanged, regressed or unresolved:
//
//   - improved: at least ten pairs, the change wins at least nine
//     tenths of them (ties count for neither side), and the medians
//     differ by more than the parent's own quartile spread;
//   - unresolved: the parent's spread is wider than the metric's bound
//     and not every change run beats every parent run;
//   - regressed: the change's median is worse than the parent's by
//     more than the bound;
//   - unchanged: otherwise.
//
// Runs pair by seed: the parent's and the change's run of one seed
// saw the same inputs.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type verdict struct {
	Workload, Metric string
	Class            string
	ParentMedian     float64
	ChangeMedian     float64
	ParentSpread     float64 // quartile distance as a share of the median
	Wins, Pairs      int
}

// classify applies the rule above to one pair of value lists, paired
// by index.
func classify(parent, change []float64, higherBetter bool, bound float64) verdict {
	v := verdict{Pairs: min(len(parent), len(change))}
	if len(parent) < 2 || len(change) < 2 {
		v.Class = "unresolved"
		return v
	}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	v.ParentMedian, v.ChangeMedian = pm, cm
	v.ParentSpread = ratio(p3-p1, math.Abs(pm))
	for i := 0; i < v.Pairs; i++ {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	allBetter := slices.Max(change) < slices.Min(parent)
	if higherBetter {
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	worse := cm - pm
	if higherBetter {
		worse = pm - cm
	}
	switch {
	case v.Pairs >= 10 && float64(v.Wins) >= 0.9*float64(v.Pairs) && -worse > p3-p1:
		v.Class = "improved"
	case v.ParentSpread > bound && !allBetter:
		v.Class = "unresolved"
	case worse > bound*math.Abs(pm):
		v.Class = "regressed"
	default:
		v.Class = "unchanged"
	}
	return v
}

// resultSet maps workload → metric → seed → value, over trace-0 runs.
type resultSet map[string]map[string]map[int64]float64

func loadResults(dir string) (resultSet, error) {
	rs := resultSet{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 || rec.Workload == "" {
			return nil
		}
		if rs[rec.Workload] == nil {
			rs[rec.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range rec.Metrics {
			if rs[rec.Workload][name] == nil {
				rs[rec.Workload][name] = map[int64]float64{}
			}
			rs[rec.Workload][name][rec.Seed] = m.Value
		}
		return nil
	})
	return rs, err
}

// compare classifies every pair present in both sets.
func compare(spec benchSpec, parent, change resultSet) []verdict {
	var out []verdict
	for _, wl := range sortedKeys(parent) {
		for _, m := range spec.EndToEnd {
			ps, cs := parent[wl][m.Name], change[wl][m.Name]
			var seeds []int64
			for s := range ps {
				if _, ok := cs[s]; ok {
					seeds = append(seeds, s)
				}
			}
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			var pv, cv []float64
			for _, s := range seeds {
				pv = append(pv, ps[s])
				cv = append(cv, cs[s])
			}
			v := classify(pv, cv, m.Better == "higher", m.Bound)
			v.Workload, v.Metric = wl, m.Name
			out = append(out, v)
		}
	}
	return out
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] <parent-results> <change-results>")
		return 2
	}
	if err := runCompare(os.Stdout, *specPath, fs.Arg(0), fs.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

func runCompare(w io.Writer, specPath, parentDir, changeDir string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		return err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return err
	}
	if len(parent) == 0 || len(change) == 0 {
		return errors.New("a result set holds no trace-0 runs")
	}
	fmt.Fprintf(w, "%-12s %-18s %-11s %14s %14s %8s %6s\n", "workload", "metric", "verdict", "parent_median", "change_median", "spread", "wins")
	for _, v := range compare(spec, parent, change) {
		fmt.Fprintf(w, "%-12s %-18s %-11s %14.4g %14.4g %8.4f %3d/%-3d\n",
			v.Workload, v.Metric, v.Class, v.ParentMedian, v.ChangeMedian, v.ParentSpread, v.Wins, v.Pairs)
	}
	return nil
}
