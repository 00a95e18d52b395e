package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 50 when none has (n < 40).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The tolerance absorbs the rounding of 100-p (e.g. 100-99.9).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs, NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the 50th percentile by the nearest-rank rule.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencies collects per-operation durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// tail reports the tail latency by the ladder rule, capped at want (the
// percentile the metric is named after), with the percentile used and the
// sample count behind it.
func (l latencies) tail(want float64) (value, p float64, n int) {
	p = tailPercentile(len(l))
	if p > want {
		p = want
	}
	return percentile(l, p), p, len(l)
}

func (l latencies) p50() float64 { return median(l) }

// measuredRounds is how many consecutive slices a run's measured phase is
// cut into. Throughput, CPU per request and median latencies are reported as
// the median over the slices, so a disturbance of the machine that lasts
// less than about two slices barely moves them.
const measuredRounds = 5

// slice returns the bounds of slice i of n items cut into k slices.
func slice(n, k, i int) (lo, hi int) { return n * i / k, n * (i + 1) / k }
