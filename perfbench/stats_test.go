package main

import (
	"math"
	"strings"
	"testing"
)

func TestRankQuantile(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(int64(i) * 1000) // 1..100 µs
	}
	s = merge(s)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := rankQuantile(s, c.q); got != c.want {
			t.Errorf("rankQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := rankQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty rankQuantile = %v, want 0", got)
	}
}

func TestSamplesClamp(t *testing.T) {
	var s samples
	s.add(-5)
	s.add(math.MaxInt64)
	if s[0] != 0 || s[1] != math.MaxUint32 {
		t.Fatalf("clamped samples = %v", s)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // the exclusive method extrapolates
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestSliceQuantileTakesMedianOfSlices(t *testing.T) {
	// Ten slices of 2000 samples; one slice is disturbed (every sample
	// 100x slower). The per-slice median keeps it from moving p99.
	per := make([]samples, numSlices)
	for s := range per {
		for i := 1; i <= 2000; i++ {
			v := int64(i) * 1000
			if s == 3 {
				v *= 100
			}
			per[s].add(v)
		}
		per[s] = merge(per[s])
	}
	if got := sliceQuantile(per, 0.99); got != 1980 {
		t.Errorf("sliced p99 = %v, want 1980", got)
	}
	if whole := rankQuantile(merge(per...), 0.99); whole <= 1980 {
		t.Errorf("whole-window p99 = %v, expected the disturbed slice to lift it", whole)
	}
}

func TestSliceQuantileMergesThinSlices(t *testing.T) {
	// 300 samples in all: too few per slice or per pair of slices for a
	// p99 with ten samples beyond it, so the whole window is used.
	per := make([]samples, numSlices)
	for i := 1; i <= 300; i++ {
		per[i%numSlices].add(int64(i) * 1000)
	}
	for s := range per {
		per[s] = merge(per[s])
	}
	if got, want := sliceQuantile(per, 0.99), rankQuantile(merge(per...), 0.99); got != want {
		t.Errorf("thin p99 = %v, want whole-window %v", got, want)
	}
	// p50 needs 20 per group: ten slices of 30 suffice.
	if got := sliceQuantile(per, 0.5); got < 140 || got > 160 {
		t.Errorf("thin p50 = %v, want ~150", got)
	}
}

func TestCumQuantile(t *testing.T) {
	// 10 observations in (0,1], 10 in (1,2], none above.
	bs := []cumBucket{{1, 10}, {2, 20}, {math.Inf(1), 20}}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 0.5}, {0.5, 1}, {0.75, 1.5}, {1, 2},
	} {
		if got := cumQuantile(bs, c.q); got != c.want {
			t.Errorf("cumQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := cumQuantile([]cumBucket{{1, 0}}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
	// A rank landing in the +Inf bucket reports its lower edge.
	if got := cumQuantile([]cumBucket{{1, 1}, {math.Inf(1), 4}}, 0.9); got != 1 {
		t.Errorf("+Inf bucket quantile = %v, want 1", got)
	}
}

func TestPromDeltas(t *testing.T) {
	before := parseProm(strings.NewReader(`# TYPE x_seconds histogram
x_seconds_bucket{op="get",result="ok",le="0.001"} 5
x_seconds_bucket{op="get",result="ok",le="0.002"} 5
x_seconds_bucket{op="get",result="ok",le="+Inf"} 5
x_seconds_sum{op="get",result="ok"} 0.004
x_seconds_count{op="get",result="ok"} 5
hits_total 7
`))
	after := parseProm(strings.NewReader(`x_seconds_bucket{op="get",result="ok",le="0.001"} 5
x_seconds_bucket{op="get",result="ok",le="0.002"} 15
x_seconds_bucket{op="get",result="ok",le="+Inf"} 15
x_seconds_bucket{op="set",result="error",le="0.001"} 100
x_seconds_bucket{op="set",result="error",le="0.002"} 100
x_seconds_bucket{op="set",result="error",le="+Inf"} 100
x_seconds_sum{op="get",result="ok"} 0.019
x_seconds_count{op="get",result="ok"} 15
hits_total 19
`))
	ok := map[string]string{"result": "ok"}
	// The ten new observations all fall in (0.001, 0.002]; the error
	// series is filtered out.
	if got := quantileBetween(before, after, "x_seconds", ok, 0.5); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("delta p50 = %v, want 0.0015", got)
	}
	if got := histMean(before, after, "x_seconds", ok); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("delta mean = %v, want 0.0015", got)
	}
	if got := delta(before, after, "hits_total", nil); got != 12 {
		t.Errorf("counter delta = %v, want 12", got)
	}
}

func TestParseLabels(t *testing.T) {
	got := parseLabels(`a="x",b="y\"z",le="+Inf"`)
	if got["a"] != "x" || got["b"] != `y"z` || got["le"] != "+Inf" || len(got) != 3 {
		t.Errorf("parseLabels = %v", got)
	}
}
