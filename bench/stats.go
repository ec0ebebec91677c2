package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by the
// nearest-rank rule: the smallest sample with at least a share q of the
// samples at or below it. Raw samples, no buckets — the repo's two
// histograms round bucket edges differently (ROADMAP 4f), so the benchmark
// uses neither.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// fnv1a folds the 8 bytes of w into the running FNV-1a hash h.
func fnv1a(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * 1099511628211
		w >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037
