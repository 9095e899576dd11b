package main

import (
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestSummarizeUniform(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p50, p99   float64
		tailQ      int
		tail       float64
		shuffleSrc int64
	}{
		// 1..1000: p99 is rank 990 with exactly ten samples beyond it.
		{n: 1000, p50: 500, p99: 990, tailQ: 9900, tail: 990, shuffleSrc: 1},
		// 1..999: rank 990 leaves nine beyond, so the tail drops to p90.
		{n: 999, p50: 500, p99: 990, tailQ: 9000, tail: 900, shuffleSrc: 2},
		// 1..10000: p99.9 is rank 9990 with ten beyond.
		{n: 10000, p50: 5000, p99: 9900, tailQ: 9990, tail: 9990, shuffleSrc: 3},
		// 1..100: only p90 has ten beyond.
		{n: 100, p50: 50, p99: 99, tailQ: 9000, tail: 90, shuffleSrc: 4},
		// 1..15: even the median has only seven beyond.
		{n: 15, p50: 8, p99: 15, tailQ: 0, tail: 0, shuffleSrc: 5},
	} {
		s := seq(tc.n)
		rand.New(rand.NewSource(tc.shuffleSrc)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		d := summarize(s)
		if d.n != tc.n || d.p50 != tc.p50 || d.p99 != tc.p99 || d.tailQ != tc.tailQ || d.tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %v p99 %v tail p%d=%v", tc.n, d, tc.p50, tc.p99, tc.tailQ, tc.tail)
		}
	}
}

func TestSummarizeSkewed(t *testing.T) {
	// 980 fast samples and 20 slow ones: the median ignores the slow
	// mode, p99 lands inside it.
	var s []float64
	for i := 0; i < 980; i++ {
		s = append(s, 1)
	}
	for i := 0; i < 20; i++ {
		s = append(s, 100)
	}
	d := summarize(s)
	if d.p50 != 1 || d.p99 != 100 || d.tailQ != 9900 {
		t.Fatalf("got %+v", d)
	}
	// Exactly 10 slow samples out of 1000: p99 is rank 990, the last
	// fast one.
	for i := range s {
		s[i] = 1
		if i >= 990 {
			s[i] = 100
		}
	}
	if d := summarize(s); d.p99 != 1 {
		t.Fatalf("p99 with ten outliers = %v, want 1", d.p99)
	}
}

func TestSummarizeEdges(t *testing.T) {
	if d := summarize(nil); d.n != 0 || d.p50 != 0 {
		t.Fatalf("empty: %+v", d)
	}
	if d := summarize([]float64{7}); d.p50 != 7 || d.p99 != 7 || d.tailQ != 0 {
		t.Fatalf("single: %+v", d)
	}
}
