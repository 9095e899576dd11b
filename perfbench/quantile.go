package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it as measured.
const tailBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, in
// parts per ten thousand, highest first.
var tailLadder = []int{9999, 9990, 9900, 9000, 5000}

// dist is the exact summary of one set of raw samples.
type dist struct {
	n   int
	p50 float64
	p99 float64
	// tailQ is the highest percentile of tailLadder with at least
	// tailBeyond samples beyond it (in parts per ten thousand; 0 when
	// even the median lacks them) and tail its value.
	tailQ int
	tail  float64
}

// summarize sorts samples in place and returns their median, p99 and
// supported tail, each by nearest rank.
func summarize(samples []float64) dist {
	sort.Float64s(samples)
	d := dist{n: len(samples)}
	if d.n == 0 {
		return d
	}
	d.p50 = nearestRank(samples, 5000)
	d.p99 = nearestRank(samples, 9900)
	for _, q := range tailLadder {
		if d.n-rank(d.n, q) >= tailBeyond {
			d.tailQ, d.tail = q, nearestRank(samples, q)
			break
		}
	}
	return d
}

// rank is the 1-based nearest rank of the q/10000 quantile of n
// samples: the smallest rank whose share of samples reaches q. It is
// computed in integers so that, e.g., p99 of 1000 samples is exactly
// rank 990.
func rank(n, q int) int {
	r := (n*q + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// nearestRank returns the q/10000 quantile of ascending samples.
func nearestRank(sorted []float64, q int) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// String renders the summary as "p50 X p<tail> Y (n=N)".
func (d dist) String() string {
	if d.tailQ == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few samples for a tail)", d.p50, d.n)
	}
	return fmt.Sprintf("p50 %.4g p%g %.4g (n=%d)", d.p50, float64(d.tailQ)/100, d.tail, d.n)
}
