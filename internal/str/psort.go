package str

import (
	"slices"
	"sync"

	"blobindex/internal/gist"
)

// The STR tiling is a sequence of stable sorts over disjoint slabs, so it
// parallelizes two ways: each slab's sort is an independent task, and a
// single large sort is split into halves that sort concurrently and merge
// stably. Both are deterministic — a stable sort has exactly one correct
// output — so the parallel order is byte-for-byte the serial order.

const (
	// sortSerialCutoff is the subproblem size below which the parallel
	// stable sort falls back to slices.SortStableFunc.
	sortSerialCutoff = 4096
	// tileParallelCutoff is the slab size below which the tiling recursion
	// stops spawning goroutines and runs inline.
	tileParallelCutoff = 2048
)

// limiter caps the extra goroutines a parallel phase may have in flight.
// tryAcquire never blocks: when no token is free the caller runs the work
// inline, so progress is guaranteed with any token count.
type limiter chan struct{}

func newLimiter(extra int) limiter {
	if extra < 1 {
		return nil
	}
	return make(limiter, extra)
}

func (l limiter) tryAcquire() bool {
	if l == nil {
		return false
	}
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l limiter) release() { <-l }

// sortByDim stably sorts pts by coordinate d. scratch must be a parallel
// slice of the same length; it is used as the merge buffer. With a nil
// limiter (or small inputs) this is exactly slices.SortStableFunc.
func sortByDim(pts, scratch []gist.Point, d int, lim limiter) {
	if len(pts) <= sortSerialCutoff || lim == nil {
		slices.SortStableFunc(pts, func(a, b gist.Point) int {
			switch {
			case a.Key[d] < b.Key[d]:
				return -1
			case b.Key[d] < a.Key[d]:
				return 1
			}
			return 0
		})
		return
	}
	mid := len(pts) / 2
	if lim.tryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lim.release()
			sortByDim(pts[:mid], scratch[:mid], d, lim)
		}()
		sortByDim(pts[mid:], scratch[mid:], d, lim)
		wg.Wait()
	} else {
		sortByDim(pts[:mid], scratch[:mid], d, lim)
		sortByDim(pts[mid:], scratch[mid:], d, lim)
	}
	// Stable merge: take from the left run on ties so equal keys keep their
	// original relative order.
	i, j, k := 0, mid, 0
	for i < mid && j < len(pts) {
		if pts[j].Key[d] < pts[i].Key[d] {
			scratch[k] = pts[j]
			j++
		} else {
			scratch[k] = pts[i]
			i++
		}
		k++
	}
	copy(scratch[k:], pts[i:mid])
	copy(scratch[k+(mid-i):], pts[j:])
	copy(pts, scratch)
}
