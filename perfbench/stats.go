package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of values and returns its median.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLevels are the percentiles a tail is reported at, highest first, in
// tenths of a percent so the samples beyond each are counted exactly.
var tailLevels = []int{999, 990, 950, 900, 750}

// tail returns the highest percentile of tailLevels with at least ten
// samples beyond it, and its value. With fewer than forty samples no such
// level exists and the median is returned at level 50.
func tail(sorted []float64) (level, value float64) {
	for _, p := range tailLevels {
		if len(sorted)*(1000-p) >= 10*1000 {
			return float64(p) / 10, quantile(sorted, float64(p)/1000)
		}
	}
	return 50, quantile(sorted, 0.5)
}

// interval is one timed call, as offsets from the round's start.
type interval struct{ start, end time.Duration }

// unionLen returns the total time covered by at least one interval.
func unionLen(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}
