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

// Merge merges per-shard result lists — each already sorted by
// (Dist2, RID), as every daemon response is — into the global (Dist2, RID)
// order, keeping at most k results (k <= 0 keeps all, the range-search
// case). Partitions are disjoint, so no deduplication is needed: the
// merged prefix is exactly what a single index over the union would have
// returned.
func Merge(lists [][]wire.Neighbor, k int) []wire.Neighbor {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	n := total
	if k > 0 && k < n {
		n = k
	}
	out := make([]wire.Neighbor, 0, n)
	// Linear heads-scan merge: shard counts are small (a handful to a few
	// dozen), where scanning beats a heap's bookkeeping.
	heads := make([]int, len(lists))
	for len(out) < n {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || neighborLess(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}
