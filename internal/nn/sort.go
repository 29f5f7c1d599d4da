package nn

import "math"

// Hand-rolled introsorts for the two hot orderings of the query path.
// slices.SortFunc pays an indirect call per comparison — measured at roughly
// a third of a 200-NN query when ordering the final results — while these
// specialize the comparison inline. The shape is classic introsort:
// median-of-three quicksort, insertion sort below a small cutoff, and a
// heapsort fallback past 2·log₂(n) recursion depth so pathological inputs
// stay O(n log n). Every phase is deterministic, and both orderings are
// strict total orders (RIDs are unique within a result set), so the output
// order is reproducible and independent of the partitioning path.

const sortCutoff = 12

func pairLess(a, b knnPair) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.rid < b.rid
}

// bucketSortPairs orders ps ascending by (d, rid) using tmp (same length) as
// scatter space. Distances are spread over 256 buckets by linear scale in
// one counting pass; after the scatter the slice holds at most a handful of
// inversions per bucket, and the final insertion pass enforces the exact
// order. On continuously distributed distances this is O(n) with tiny
// constants — comparison sorts of float keys pay a mispredicted branch per
// compare — while a degenerate distribution (all distances equal) decays to
// the insertion sort's quadratic but stays correct and deterministic.
func bucketSortPairs(ps, tmp []knnPair) {
	if len(ps) <= 2*sortCutoff {
		insertionSortPairs(ps)
		return
	}
	maxd := 0.0
	for _, p := range ps {
		if p.d > maxd {
			maxd = p.d
		}
	}
	if !(maxd > 0) || math.IsInf(maxd, 1) {
		sortPairs(ps)
		return
	}
	scale := 255 / maxd
	var cnt [257]int32
	for _, p := range ps {
		b := int(p.d * scale)
		if b < 0 {
			b = 0
		} else if b > 255 {
			b = 255
		}
		cnt[b+1]++
	}
	for b := 1; b < len(cnt); b++ {
		cnt[b] += cnt[b-1]
	}
	for _, p := range ps {
		b := int(p.d * scale)
		if b < 0 {
			b = 0
		} else if b > 255 {
			b = 255
		}
		tmp[cnt[b]] = p
		cnt[b]++
	}
	copy(ps, tmp)
	insertionSortPairs(ps)
}

func resultLess(a, b Result) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.RID < b.RID
}

// depthBudget is 2·⌊log₂(n)⌋ quicksort levels before falling back.
func depthBudget(n int) int {
	d := 0
	for n > 0 {
		d += 2
		n >>= 1
	}
	return d
}

func sortPairs(ps []knnPair) { introPairs(ps, depthBudget(len(ps))) }

func introPairs(ps []knnPair, depth int) {
	for len(ps) > sortCutoff {
		if depth == 0 {
			heapSortPairs(ps)
			return
		}
		depth--
		mid := partitionPairs(ps)
		// Recurse into the smaller side, loop on the larger, bounding the
		// stack at O(log n).
		if mid < len(ps)-mid-1 {
			introPairs(ps[:mid], depth)
			ps = ps[mid+1:]
		} else {
			introPairs(ps[mid+1:], depth)
			ps = ps[:mid]
		}
	}
	insertionSortPairs(ps)
}

// partitionPairs moves the median of the first, middle and last element to
// the front as pivot, Hoare-partitions the rest, and returns the pivot's
// final index.
func partitionPairs(ps []knnPair) int {
	m, hi := len(ps)/2, len(ps)-1
	if pairLess(ps[m], ps[0]) {
		ps[m], ps[0] = ps[0], ps[m]
	}
	if pairLess(ps[hi], ps[m]) {
		ps[hi], ps[m] = ps[m], ps[hi]
		if pairLess(ps[m], ps[0]) {
			ps[m], ps[0] = ps[0], ps[m]
		}
	}
	ps[0], ps[m] = ps[m], ps[0]
	pivot := ps[0]
	i, j := 1, hi
	for {
		for i <= j && pairLess(ps[i], pivot) {
			i++
		}
		for i <= j && pairLess(pivot, ps[j]) {
			j--
		}
		if i > j {
			break
		}
		ps[i], ps[j] = ps[j], ps[i]
		i++
		j--
	}
	ps[0], ps[j] = ps[j], ps[0]
	return j
}

func insertionSortPairs(ps []knnPair) {
	for i := 1; i < len(ps); i++ {
		x := ps[i]
		j := i - 1
		for j >= 0 && pairLess(x, ps[j]) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = x
	}
}

func heapSortPairs(ps []knnPair) {
	n := len(ps)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownPairs(ps, i, n)
	}
	for end := n - 1; end > 0; end-- {
		ps[0], ps[end] = ps[end], ps[0]
		siftDownPairs(ps, 0, end)
	}
}

func siftDownPairs(ps []knnPair, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && pairLess(ps[l], ps[r]) {
			j = r
		}
		if !pairLess(ps[i], ps[j]) {
			return
		}
		ps[i], ps[j] = ps[j], ps[i]
		i = j
	}
}

func sortResultsFast(rs []Result) { introResults(rs, depthBudget(len(rs))) }

// TopK orders the k smallest of rs by (Dist2, RID) into rs[:k] and returns
// that prefix, leaving the rest of rs in no particular order: exactly the
// first k of sortResultsFast(rs), without sorting the elements past k. k
// must not be negative; a k at or past len(rs) sorts all of rs.
func TopK(rs []Result, k int) []Result {
	if k >= len(rs) {
		sortResultsFast(rs)
		return rs
	}
	selectResults(rs, k, depthBudget(len(rs)))
	sortResultsFast(rs[:k])
	return rs[:k]
}

// selectResults is introselect: it moves the k smallest of rs into rs[:k],
// in any order, partitioning only the side that holds the k-th element.
func selectResults(rs []Result, k, depth int) {
	for len(rs) > sortCutoff {
		if depth == 0 {
			heapSortResults(rs)
			return
		}
		depth--
		mid := partitionResults(rs)
		switch {
		case k < mid:
			rs = rs[:mid]
		case k > mid+1:
			rs, k = rs[mid+1:], k-mid-1
		default:
			return // rs[:mid] ≤ rs[mid] ≤ rs[mid+1:], and k is mid or mid+1
		}
	}
	insertionSortResults(rs)
}

func introResults(rs []Result, depth int) {
	for len(rs) > sortCutoff {
		if depth == 0 {
			heapSortResults(rs)
			return
		}
		depth--
		mid := partitionResults(rs)
		if mid < len(rs)-mid-1 {
			introResults(rs[:mid], depth)
			rs = rs[mid+1:]
		} else {
			introResults(rs[mid+1:], depth)
			rs = rs[:mid]
		}
	}
	insertionSortResults(rs)
}

func partitionResults(rs []Result) int {
	m, hi := len(rs)/2, len(rs)-1
	if resultLess(rs[m], rs[0]) {
		rs[m], rs[0] = rs[0], rs[m]
	}
	if resultLess(rs[hi], rs[m]) {
		rs[hi], rs[m] = rs[m], rs[hi]
		if resultLess(rs[m], rs[0]) {
			rs[m], rs[0] = rs[0], rs[m]
		}
	}
	rs[0], rs[m] = rs[m], rs[0]
	pivot := rs[0]
	i, j := 1, hi
	for {
		for i <= j && resultLess(rs[i], pivot) {
			i++
		}
		for i <= j && resultLess(pivot, rs[j]) {
			j--
		}
		if i > j {
			break
		}
		rs[i], rs[j] = rs[j], rs[i]
		i++
		j--
	}
	rs[0], rs[j] = rs[j], rs[0]
	return j
}

func insertionSortResults(rs []Result) {
	for i := 1; i < len(rs); i++ {
		x := rs[i]
		j := i - 1
		for j >= 0 && resultLess(x, rs[j]) {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = x
	}
}

func heapSortResults(rs []Result) {
	n := len(rs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownResults(rs, i, n)
	}
	for end := n - 1; end > 0; end-- {
		rs[0], rs[end] = rs[end], rs[0]
		siftDownResults(rs, 0, end)
	}
}

func siftDownResults(rs []Result, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && resultLess(rs[l], rs[r]) {
			j = r
		}
		if !resultLess(rs[i], rs[j]) {
			return
		}
		rs[i], rs[j] = rs[j], rs[i]
		i = j
	}
}
