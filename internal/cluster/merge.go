package cluster

import "blobindex/internal/wire"

// neighborLess is the (Dist2, RID) total order every tier of the stack
// sorts results by — internal/nn within one tree, segment.Stack across
// segments, and here across shards. Dist2 carries the traversal's exact
// squared-distance bits over the wire, so this comparison reproduces the
// single-index order bit for bit.
func neighborLess(a, b wire.Neighbor) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.RID < b.RID
}

// spanLess is neighborLess over scanned spans.
func spanLess(a, b wire.Span) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.RID < b.RID
}

// Merge merges per-shard result lists — each already sorted by
// (Dist2, RID), as every daemon response is — into the global (Dist2, RID)
// order, keeping at most k results (k <= 0 keeps all, the range-search
// case). Partitions are disjoint, so no deduplication is needed: the
// merged prefix is exactly what a single index over the union would have
// returned. The router merges encoded answers with mergeSpans; Merge is
// the decoded reference it is tested against.
func Merge(lists [][]wire.Neighbor, k int) []wire.Neighbor {
	out := make([]wire.Neighbor, 0, mergedLen(lists, k))
	mergeHeads(lists, k, neighborLess, func(_ int, n wire.Neighbor) { out = append(out, n) })
	return out
}

// mergeSpans appends to dst the neighbours array of the merged answer:
// the first k spans (k <= 0: all) of lists in (Dist2, RID) order, each
// copied verbatim from bodies[i], the body lists[i] was scanned from.
func mergeSpans(dst []byte, bodies [][]byte, lists [][]wire.Span, k int) []byte {
	dst = append(dst, '[')
	first := true
	mergeHeads(lists, k, spanLess, func(i int, s wire.Span) {
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, bodies[i][s.Start:s.End]...)
	})
	return append(dst, ']')
}

func mergedLen[T any](lists [][]T, k int) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if k > 0 && k < n {
		n = k
	}
	return n
}

// mergeHeads calls emit for the first k elements (k <= 0: all) of the
// sorted lists in less order, with the index of the list each came from.
// It is a linear heads-scan: shard counts are small (a handful to a few
// dozen), where scanning beats a heap's bookkeeping.
func mergeHeads[T any](lists [][]T, k int, less func(a, b T) bool, emit func(list int, t T)) {
	heads := make([]int, len(lists))
	for n := mergedLen(lists, k); n > 0; n-- {
		best := -1
		for i, l := range lists {
			if heads[i] < len(l) && (best < 0 || less(l[heads[i]], lists[best][heads[best]])) {
				best = i
			}
		}
		emit(best, lists[best][heads[best]])
		heads[best]++
	}
}
