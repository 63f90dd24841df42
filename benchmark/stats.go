package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// latencies collects per-operation durations. A failed operation is
// recorded as +Inf, so it lands beyond every percentile limit instead
// of vanishing from the sample.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)) }
func (l *latencies) fail()               { *l = append(*l, math.Inf(1)) }

// summary is the order statistics the report prints for one sample.
type summary struct {
	N   int
	P50 float64 // nanoseconds
	P99 float64 // nanoseconds
	// Beyond99 is the number of samples strictly above P99: the report
	// only trusts a percentile with at least ten samples beyond it.
	Beyond99 int
	Mean     float64
}

func (l latencies) summarize() summary {
	if len(l) == 0 {
		return summary{}
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 0.50), P99: percentile(s, 0.99)}
	for i := len(s) - 1; i >= 0 && s[i] > out.P99; i-- {
		out.Beyond99++
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	return out
}

// percentile returns the nearest-rank q-quantile of an ascending
// sample: the smallest value with at least q of the sample at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the 0.5 nearest-rank quantile of an unsorted sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ms and us convert a nanosecond figure for the report. A failed
// operation at the percentile reads as +Inf, which encoding/json cannot
// carry, so it is reported as failedMs: beyond any latency limit a
// reader would set.
const failedMs = 1e12

func ms(ns float64) float64 {
	if math.IsInf(ns, 1) {
		return failedMs
	}
	return ns / 1e6
}

func us(ns float64) float64 {
	if math.IsInf(ns, 1) {
		return failedMs * 1e3
	}
	return ns / 1e3
}

// describe renders a summary in milliseconds with its sample counts.
func (s summary) describe() string {
	note := ""
	if s.N > 0 && s.Beyond99 < 10 {
		note = " (p99 has fewer than 10 samples beyond it)"
	}
	return fmt.Sprintf("p50 %.4f ms, p99 %.4f ms (n=%d, %d beyond p99)%s",
		ms(s.P50), ms(s.P99), s.N, s.Beyond99, note)
}
