package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity, in the metric's unit.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of a sorted sample by linear
// interpolation; NaN for an empty sample.
func quantile(sorted sample, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return quantile(s.sorted(), 0.5) }

// p95 is the 95th percentile, 0 for an empty sample.
func (s sample) p95() float64 {
	if len(s) == 0 {
		return 0
	}
	return quantile(s.sorted(), 0.95)
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// minSamplesBeyond is how many samples must lie beyond a percentile for
// the sample to support it (choosing-metrics guide, section 1).
const minSamplesBeyond = 10

// supports reports whether n samples leave at least minSamplesBeyond of
// them beyond the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minSamplesBeyond
}

// highestSupported names the highest of the usual percentiles that n
// samples support, for the validity block.
func highestSupported(n int) string {
	for _, p := range []struct {
		q    float64
		name string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}, {0.5, "p50"}} {
		if supports(n, p.q) {
			return p.name
		}
	}
	return "none"
}

// ratio is a/b, 0 when b is 0, so per-layer ratios of idle layers read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
