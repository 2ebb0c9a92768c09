package main

import (
	"math"
	"sort"
)

// median returns the middle of v (mean of the two middle values for an
// even count); NaN for an empty slice. v is not modified.
func median(v []float64) float64 {
	return quantileSorted(sorted(v), 0.5)
}

// fastEdge is the estimator every timing metric of this benchmark
// reports: the 5th percentile of the samples. On the shared two-core
// hosts this runs on, a neighbour on the sibling hyperthread slows
// memory-bound code by up to 1.7x for seconds at a time (README,
// "Noise"), which makes the median of a run flip between two modes; the
// fast edge tracks the uncontended mode, which is the one the code under
// test controls. The median and the tail are still printed beside it.
func fastEdge(v []float64) float64 {
	return quantileSorted(sorted(v), 0.05)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileSorted linearly interpolates the q-quantile of an ascending
// slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first and third quartile of v by the rule of
// Python's statistics.quantiles(v, n=4) (exclusive method) — the rule
// the acceptance spread is defined with — so the spreads printed here
// are the ones a reader would recompute.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// tail is the highest percentile of a sample that still has at least
// ten samples beyond it, with its value; P is 0 when the sample is too
// small for any.
type tail struct {
	P     float64 `json:"percentile"`
	Value float64 `json:"value"`
}

func highTail(v []float64) tail {
	s := sorted(v)
	for _, p := range []float64{99.9, 99, 95, 90} {
		beyond := int(float64(len(s)) * (100 - p) / 100)
		if beyond >= 10 {
			return tail{P: p, Value: s[len(s)-1-beyond]}
		}
	}
	return tail{}
}
