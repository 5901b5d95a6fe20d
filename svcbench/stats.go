package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank
// before the percentile is reported; with fewer, the value is one of the
// last few samples and says more about luck than about the system.
const minBeyond = 10

// errRefused marks a percentile the sample cannot support.
type errRefused struct {
	permille, n int
}

func (e errRefused) Error() string {
	return fmt.Sprintf("p%g refused: %d samples leave fewer than %d beyond it", float64(e.permille)/10, e.n, minBeyond)
}

// percentile returns the nearest-rank percentile of xs given in permille
// (500 = p50, 990 = p99): the smallest sample with at least that share
// of the samples at or below it. It refuses, with errRefused, when fewer
// than minBeyond samples lie beyond that rank. xs is not modified.
func percentile(xs []float64, permille int) (float64, error) {
	n := len(xs)
	if permille <= 0 || permille > 1000 {
		return 0, fmt.Errorf("percentile %d‰ outside (0, 1000]", permille)
	}
	// rank = ceil(permille*n/1000), in integers so p99 of 1000 samples is
	// rank 990 exactly.
	rank := (permille*n + 999) / 1000
	if rank < 1 || n-rank < minBeyond {
		return 0, errRefused{permille, n}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// latencyBlock is the size of the blocks latency percentiles are taken
// over: the fewest ops that leave ten samples beyond a p90, rounded up.
const latencyBlock = 128

// blockPercentile splits xs, given in the order the ops were due, into
// consecutive blocks of at least latencyBlock samples, takes each
// block's nearest-rank percentile, and returns the median over the
// blocks. A burst of hypervisor steal or contention from the host's
// other tenants then moves a few blocks, not the result. It refuses
// when xs cannot fill one block or a block cannot support the
// percentile.
func blockPercentile(xs []float64, permille int) (float64, error) {
	k := len(xs) / latencyBlock
	if k == 0 {
		return 0, errRefused{permille, len(xs)}
	}
	per := make([]float64, k)
	for b := 0; b < k; b++ {
		v, err := percentile(xs[b*len(xs)/k:(b+1)*len(xs)/k], permille)
		if err != nil {
			return 0, err
		}
		per[b] = v
	}
	return median(per), nil
}

// median is the nearest-rank p50 without the sample-size floor, for
// internal summaries (setup repetitions) where the count is fixed small.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
