package main

import (
	"fmt"
	"math"
	"sort"
)

// summary describes one metric's samples: count, median, quartiles,
// extremes and the tail — the highest of p50/p90/p99/p99.9 that has at
// least ten samples beyond it. With fewer than twenty samples no
// percentile qualifies; the tail is then the maximum, labelled "max".
type summary struct {
	N         int     `json:"n"`
	Median    float64 `json:"median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Tail      float64 `json:"tail"`
	TailLabel string  `json:"tail_label"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	out := summary{N: len(s), Median: med, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
	out.Tail, out.TailLabel = s[len(s)-1], "max"
	for _, p := range []float64{99.9, 99, 90, 50} {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank >= 1 && len(s)-rank >= 10 {
			out.Tail, out.TailLabel = s[rank-1], fmt.Sprintf("p%g", p)
			break
		}
	}
	return out
}

// quartiles follows Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so the benchmark's own spreads read the
// same as any later analysis of its output. s must be sorted.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], median(s), q[2]
}

func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf returns the median of unsorted xs (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}
