package main

import (
	"cmp"
	"math"
	"slices"
)

// samples holds exact per-op latencies in nanoseconds. uint32 caps one
// sample at ~4.29 s, far above any op this benchmark issues, and keeps
// the buffers (which live in the process under test for the in-process
// workloads) at 4 bytes per op.
type samples []uint32

func (s *samples) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	*s = append(*s, uint32(ns))
}

// merge concatenates per-client sample sets and sorts the result.
func merge(parts ...samples) samples {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(samples, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// rankQuantile is the nearest-rank q-quantile of sorted exact samples,
// in microseconds: the smallest sample with at least q of the samples
// at or below it. Empty input yields 0.
func rankQuantile(sorted samples, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// numSlices is how many equal time slices a window is cut into. A
// quantile or rate is taken per slice and the median across slices is
// reported, so a passing disturbance on a shared host moves one slice,
// not the run's figure.
const numSlices = 10

// sliceQuantile is the median over the window's slices of each slice's
// q-quantile. A quantile is only read from a group of samples with at
// least ten beyond it, so where slices are too thin they are merged
// into fewer, longer groups, down to the whole window.
func sliceQuantile(per []samples, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	for _, groups := range []int{10, 5, 2} {
		if len(per)%groups != 0 {
			continue
		}
		var qs []float64
		for g := 0; g < groups; g++ {
			w := len(per) / groups
			grp := merge(per[g*w : (g+1)*w]...)
			if len(grp) < need {
				break
			}
			qs = append(qs, rankQuantile(grp, q))
		}
		if len(qs) == groups {
			return median(qs)
		}
	}
	return rankQuantile(merge(per...), q)
}

// median is the middle of xs (the mean of the middle two for even
// counts).
func median(xs []float64) float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with
// the default ("exclusive") method of Python's statistics.quantiles,
// so spreads computed here match the ones an outside checker computes
// from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n, m := 4, len(d)+1
	var r [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		r[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return r[0], r[1], r[2]
}

// cumBucket is one cumulative histogram bucket: count observations at
// or below le.
type cumBucket struct {
	le    float64
	count float64
}

// cumQuantile estimates the q-quantile of a cumulative histogram (the
// Prometheus `_bucket` shape, and runtime/metrics histograms after
// accumulation), interpolating linearly inside the bucket that holds
// the rank. Buckets must be sorted by le; an infinite top edge falls
// back to the bucket's lower edge.
func cumQuantile(bs []cumBucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank && b.count > prev {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/(b.count-prev)
		}
		lo, prev = b.le, b.count
	}
	return lo
}

func sortBuckets(bs []cumBucket) {
	slices.SortFunc(bs, func(a, b cumBucket) int { return cmp.Compare(a.le, b.le) })
}

// ratio divides, returning 0 for an empty base so idle layers read 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
