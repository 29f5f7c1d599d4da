package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the "ten samples beyond" rule of the metrics guide: a
// percentile is reported only when at least this many samples lie above it,
// so p99 needs 1 000 samples and p50 needs 20.
const minBeyond = 10

// Samples is the benchmark's one latency sample type: every timed phase and
// every ladder rung records raw durations into one, in arrival order, and
// reads exact (nearest-rank over the sorted samples) percentiles out of it.
// There is no bucketing, so two runs that did the same work report the same
// resolution.
type Samples struct {
	ns     []int64
	sorted []int64 // cache of slices.Sorted(ns); dropped on Add
}

// NewSamples preallocates room for n samples so recording never grows the
// slice inside a timed phase.
func NewSamples(n int) *Samples { return &Samples{ns: make([]int64, 0, n)} }

// Add records one sample.
func (s *Samples) Add(d time.Duration) {
	s.ns = append(s.ns, int64(d))
	s.sorted = nil
}

// Merge appends o's samples after s's own.
func (s *Samples) Merge(o *Samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = nil
}

// N is the sample count.
func (s *Samples) N() int { return len(s.ns) }

func (s *Samples) sortedNS() []int64 {
	if s.sorted == nil {
		s.sorted = slices.Clone(s.ns)
		slices.Sort(s.sorted)
	}
	return s.sorted
}

// rankIndex is the nearest-rank index of percentile p in n sorted samples:
// the smallest sample with at least p·n samples at or below it.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// Percentile returns the exact p-th percentile (0 < p <= 1). It refuses —
// rather than print a number the sample cannot support — when fewer than
// minBeyond samples lie above the percentile's rank.
func (s *Samples) Percentile(p float64) (time.Duration, error) {
	n := len(s.ns)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.3g of no samples", p)
	}
	i := rankIndex(p, n)
	if beyond := n - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.3g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return time.Duration(s.sortedNS()[i]), nil
}

// Loose is Percentile without the samples-beyond rule, for smoke-scale runs
// whose phases are too short to support a tail; such runs are marked and
// never compared.
func (s *Samples) Loose(p float64) time.Duration {
	if len(s.ns) == 0 {
		return 0
	}
	return time.Duration(s.sortedNS()[rankIndex(p, len(s.ns))])
}

// Mean is the arithmetic mean.
func (s *Samples) Mean() time.Duration {
	if len(s.ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.ns {
		sum += v
	}
	return time.Duration(sum / int64(len(s.ns)))
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// medianOf is the median of a small set of run-level values (set-up
// repetitions, repeat runs): the mean of the two middle values when the
// count is even.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
