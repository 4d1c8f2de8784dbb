package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every timing is reported: the median, the tail as far
// as the sample count supports it, and the count itself.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summarize sorts vals in place and returns their summary.
func summarize(vals []float64) summary {
	sort.Float64s(vals)
	s := summary{N: len(vals)}
	if len(vals) > 0 {
		s.P50 = quantile(vals, 0.5)
		s.P90 = quantile(vals, 0.9)
		s.P99 = quantile(vals, 0.99)
		s.Max = vals[len(vals)-1]
	}
	return s
}

func median(vals []float64) float64 { return summarize(vals).P50 }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
