package main

import (
	"math"
	"sort"
	"time"
)

// summary is how the parent reports one metric over its rounds.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(vals []float64) summary {
	q1, q3 := quartiles(vals)
	return summary{Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Values: vals}
}

// spread is the interquartile distance as a share of the median — the
// quantity every bound in this benchmark is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// exclusive method, because that is what the acceptance check applies to
// the benchmark's own output. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles a latency may be reported at, in
// rising order.
var tailPercentiles = []float64{50, 90, 95, 99}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten samples beyond it among n, so the reported tail is
// never a single outlier; 50 when even p90 lacks them.
func highestPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted
// durations.
func percentile(sortedLat []time.Duration, p float64) time.Duration {
	if len(sortedLat) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sortedLat))))
	if rank < 1 {
		rank = 1
	}
	return sortedLat[rank-1]
}

// latencyStats is a latency sample reduced to the two reported points.
type latencyStats struct {
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // the percentile Tail was taken at (99 when supported)
	Samples int
}

func reduceLatencies(lat []time.Duration) latencyStats {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p := highestPercentile(len(lat))
	return latencyStats{
		P50: percentile(lat, 50), Tail: percentile(lat, p),
		TailPct: p, Samples: len(lat),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
