package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail is reported only when at least
// this many samples lie beyond it, so one slow outlier cannot be the tail.
const minBeyond = 10

// samples is a set of durations, in the order they were observed.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile of the sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (s samples) sorted() []time.Duration {
	out := append([]time.Duration(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median is the 0.5 quantile; zero for an empty set.
func (s samples) median() time.Duration { return quantile(s.sorted(), 0.5) }

// beyond is how many samples lie strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantiles are the tails tried, highest first, when the caller lets
// the sample count pick the tail.
var tailQuantiles = []float64{0.99, 0.9, 0.75}

// summary is a timing printed by the percentile rule: median plus a named
// tail, with the sample count.
type summary struct {
	n     int
	p50   time.Duration
	tailQ float64 // 0 when no tail has enough samples beyond it
	tail  time.Duration
}

// summarize reports the median and the highest tail in tailQuantiles that
// has minBeyond samples beyond it.
func (s samples) summarize() summary {
	srt := s.sorted()
	sm := summary{n: len(srt), p50: quantile(srt, 0.5)}
	for _, q := range tailQuantiles {
		if beyond(len(srt), q) >= minBeyond {
			sm.tailQ, sm.tail = q, quantile(srt, q)
			break
		}
	}
	return sm
}

// tailAt reports the q-quantile, or an error when fewer than minBeyond
// samples lie beyond it: the rule fails the run instead of printing a tail
// that one outlier decides.
func (s samples) tailAt(q float64) (time.Duration, error) {
	if b := beyond(len(s), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, len(s), b, minBeyond)
	}
	return quantile(s.sorted(), q), nil
}

func (sm summary) String() string {
	if sm.tailQ == 0 {
		return fmt.Sprintf("p50 %.4g ms, no tail (n=%d)", ms(sm.p50), sm.n)
	}
	return fmt.Sprintf("p50 %.4g ms, p%g %.4g ms (n=%d)", ms(sm.p50), sm.tailQ*100, ms(sm.tail), sm.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
