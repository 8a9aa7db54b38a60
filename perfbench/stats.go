package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond the reported tail
// percentile for the tail to be more than one or two outliers.
const tailSamples = 10

// median returns the middle of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that has at least
// tailSamples samples beyond it: the (tailSamples+1)-th largest sample. It
// also returns that percentile (the share of samples at or below the value)
// and how many samples lie beyond it. With tailSamples or fewer samples no
// percentile qualifies, and tail returns the maximum with zero beyond.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailSamples {
		return s[n-1], 100, 0
	}
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n), tailSamples
}

// geomean returns the geometric mean of positive xs; 0 if any is not
// positive or there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is the SplitMix64 finalizer: a seeded, stateless generator, so
// the i-th input of a workload depends only on the seed and i, not on which
// client drew it or when.
func splitmix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputSeed derives the trace seed of one named input of a workload from
// the benchmark seed, as a positive value.
func inputSeed(seed int64, i int) int64 {
	return int64(splitmix(seed, uint64(i)) >> 1)
}
