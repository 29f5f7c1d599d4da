package nn

import (
	"sync"

	"blobindex/internal/page"
)

// searchScratch bundles the per-query transient state of the search
// algorithms — the best-first frontier, the range-descent stack and the
// radius-estimation distances — so one workload's queries recycle a few
// buffers instead of reallocating them per call. Instances cycle through a
// sync.Pool; a search borrows one for the duration of a single call, so
// scratch never crosses goroutines.
type searchScratch struct {
	nqueue  npq    // node frontier heap (knnSearch and SearchApproxCtxInto)
	roots   []Root // knnSearch's copy of its roots, so the caller's stay on its stack
	stack   []page.PageID
	dists   []float64
	idx     []int32   // range-filter survivor indices (RangeFlatBlock)
	bound   []float64 // k-NN bound-heap distance lane (knnSearch.hd)
	kidx    []int32   // k-NN bound-heap result-index lane
	pairs   []knnPair // k-NN emit sort scratch
	pairs2  []knnPair // k-NN emit scatter space
	results []Result
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func getScratch() *searchScratch { return scratchPool.Get().(*searchScratch) }

// release empties the buffers and returns the scratch to the pool. Result
// entries and roots are cleared first so a pooled scratch never holds key
// views or trees of an index the caller has dropped; the frontier heap and
// descent stack hold only page ids and scalars.
func (s *searchScratch) release() {
	s.nqueue = s.nqueue[:0]
	clear(s.roots)
	s.roots = s.roots[:0]
	s.stack = s.stack[:0]
	s.dists = s.dists[:0]
	s.idx = s.idx[:0]
	s.bound = s.bound[:0]
	s.kidx = s.kidx[:0]
	s.pairs = s.pairs[:0]
	s.pairs2 = s.pairs2[:0]
	for i := range s.results {
		s.results[i] = Result{}
	}
	s.results = s.results[:0]
	scratchPool.Put(s)
}

// The priority queue is a hand-rolled binary min-heap rather than a
// container/heap.Interface: the interface's Push(any)/Pop() box every item
// into an interface value, which was the dominant per-query heap allocation
// of the search hot path. The ordering key (dist2, point-before-node, seq)
// is a total order — seq is unique — so the pop sequence is independent of
// heap internals and identical to the container/heap implementation it
// replaces.

func (q pq) less(i, j int) bool {
	if q[i].dist2 != q[j].dist2 {
		return q[i].dist2 < q[j].dist2
	}
	// Prefer points over nodes at equal distance so results surface early,
	// then FIFO order.
	if q[i].isNode != q[j].isNode {
		return !q[i].isNode
	}
	return q[i].seq < q[j].seq
}

// pushItem adds x and sifts it up.
func (q *pq) pushItem(x item) {
	*q = append(*q, x)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popItem removes and returns the minimum element, zeroing the vacated slot
// so pooled queues hold no stale node or key references past their length.
func (q *pq) popItem() item {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	h[n] = item{}
	*q = h[:n]
	return it
}
