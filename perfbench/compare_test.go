package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seq(base, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestClassify(t *testing.T) {
	parent := seq(100, 1, 10) // 100..104, spread ~3%
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", seq(100, 1, 10), true, 0.1, "unchanged"},
		{"faster", seq(120, 1, 10), true, 0.1, "improved"},
		{"slightly slower, inside bound", seq(95, 1, 10), true, 0.1, "unchanged"},
		{"slower past bound", seq(80, 1, 10), true, 0.1, "regressed"},
		{"latency lower is better", seq(80, 1, 10), false, 0.1, "improved"},
		{"latency higher past bound", seq(120, 1, 10), false, 0.1, "regressed"},
		{"bound tighter than spread", seq(99, 1, 10), true, 0.01, "unresolved"},
		{"too few pairs to claim a gain", seq(120, 1, 5), true, 0.1, "unchanged"},
	} {
		if got := classify(parent, c.change, c.higher, c.bound).Class; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestClassifyWideSpreadButEveryRunBetter(t *testing.T) {
	parent := []float64{50, 100, 150, 60, 140, 55, 145, 70, 130, 100}
	change := []float64{200, 210, 220, 205, 215, 200, 210, 220, 205, 215}
	// Parent spread is far over the bound, but every change run beats
	// every parent run, so the pair is resolved (here: improved).
	if got := classify(parent, change, true, 0.05).Class; got != "improved" {
		t.Errorf("got %s, want improved", got)
	}
	// Eight wins in ten are too few to claim a gain, and the spread
	// leaves the pair unresolved.
	change[0], change[1] = 10, 10
	if got := classify(parent, change, true, 0.05).Class; got != "unresolved" {
		t.Errorf("two losses: got %s, want unresolved", got)
	}
}

func TestRunComparePairsBySeed(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end":[{"name":"throughput_ops_s","unit":"1/s","better":"higher","bound":0.1}]}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, seed int64, trace int, v float64) {
		rec := record{Workload: "kv-mem", Seed: seed, Trace: trace}
		rec.Metrics = map[string]metric{"throughput_ops_s": {Value: v, Unit: "1/s"}}
		b, _ := json.Marshal(rec)
		p := filepath.Join(dir, side, "kv-mem")
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, fmt.Sprintf("seed%d-trace%d.json", seed, trace)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(0); s < 10; s++ {
		write("parent", s, 0, 1000+float64(s))
		write("change", s, 0, 1500+float64(s))
		write("change", s, 1, 1) // traced runs are ignored
	}
	write("change", 99, 0, 1) // unpaired seed is ignored
	var out bytes.Buffer
	if err := runCompare(&out, specPath, filepath.Join(dir, "parent"), filepath.Join(dir, "change")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "improved") || !strings.Contains(out.String(), "10/10") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
