// Package nn implements the query engines the amdb analysis runs over a
// GiST, one entry point each:
//
//   - SearchCtxInto: exact k-NN by the best-first (incremental) algorithm of
//     Hjaltason and Samet, the serving path;
//   - SearchRootsCtxInto: that search over several trees at once, with
//     tombstoned RIDs masked, for a segment stack;
//   - SearchExpandingCtxInto: k-NN as the paper's access methods execute it,
//     a greedy probe followed by doubling range queries (§5);
//   - SearchSphereCtxInto: k-NN as one range query at the true k-th-neighbor
//     radius — the idealized sphere of Figure 9 and the default amdb mode;
//   - SearchApproxCtxInto: the approximate candidate harvest of §2.3;
//   - RangeCtxInto: every point within a squared radius.
//
// Iterator is the incremental form of the best-first search, and BruteForce
// the exact oracle the others are tested against.
//
// The best-first search orders unexplored subtrees by the extension's
// admissible MinDist2 lower bound; popping them in distance order yields
// neighbors incrementally and visits provably no more nodes than any
// algorithm using the same bounds — in essence the "expanding sphere" query
// of paper §5. Because every Extension's MinDist2 is admissible (it never
// overestimates the distance to data under the predicate; see the property
// tests in internal/geom and internal/am), every exact engine is exact for
// all six access methods, including JB and XJB whose corner bites tighten
// the bound.
//
// Every engine has the shape (ctx, tree, q, k or radius2, trace, dst) and
// returns (results, error):
//
//   - results are appended to dst, nearest first, and the extended slice is
//     returned; a caller-reused dst is what lets a replay loop run whole
//     workloads without per-query allocation;
//   - a non-nil trace records every node whose page the search reads, in
//     read order;
//   - ctx cancels mid-traversal, checked once per visited node (nil means
//     no cancellation); on a context or page-store error dst is returned
//     truncated to its original length;
//   - k <= 0 or an empty tree returns dst unchanged, with ctx's error if it
//     is already done and nil otherwise.
//
// Every search borrows its frontier and traversal scratch from a
// package-level sync.Pool for the duration of one call (see searchScratch),
// so steady-state queries allocate nothing, and holds the tree's read lock
// while touching nodes, so any number of searches run concurrently with
// each other and with a single writer.
package nn

import (
	"context"
	"slices"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/page"
)

// Result is one nearest neighbor, nearest first.
type Result struct {
	RID   int64
	Key   geom.Vector
	Dist2 float64
	// Leaf is the page that held the result — the amdb analysis uses it to
	// decide which accessed leaves actually contributed answers.
	Leaf page.PageID
}

// item is one priority-queue element: either a tree node awaiting expansion
// (referenced by page id — the node itself is pinned against the tree's
// store only while it is expanded) or a concrete data point.
type item struct {
	dist2  float64
	seq    int // FIFO tie-break for determinism
	child  page.PageID
	isNode bool
	res    Result // valid when !isNode
}

// pq is a binary min-heap of items; its ordering and sift operations live
// in scratch.go.
type pq []item

// SearchCtxInto appends the k nearest neighbors of q in the tree to dst,
// nearest first; fewer than k when the tree holds fewer points. The engine
// is the two-heap bounded best-first search of knn.go: the incremental
// Iterator's distances without its per-point priority-queue traffic, with
// exact distance ties ordered by RID (the Iterator yields them in discovery
// order). It is SearchRootsCtxInto over one tree.
// See the package documentation for the dst, trace and ctx contract.
func SearchCtxInto(ctx context.Context, t *gist.Tree, q geom.Vector, k int, trace *gist.Trace, dst []Result) ([]Result, error) {
	return SearchRootsCtxInto(ctx, []Root{{Tree: t}}, nil, nil, q, k, trace, dst)
}

// Root is one tree of a multi-root search and the generation it was written in.
type Root struct {
	Tree *gist.Tree
	Gen  uint64
}

// SearchRootsCtxInto is SearchCtxInto over the union of the roots' trees, one
// frontier and one k-bound for all, skipping a point whose RID tombs maps to a
// watermark above its root's Gen. It read-locks every tree for the whole search.
// At most k seed results, found elsewhere, start in the k-bound and compete with
// the trees' points; they are copied before dst is written, so seed may alias
// dst past its length.
func SearchRootsCtxInto(ctx context.Context, roots []Root, tombs map[int64]uint64, seed []Result, q geom.Vector, k int, trace *gist.Trace, dst []Result) ([]Result, error) {
	base := len(dst)
	if k <= 0 || len(roots) == 0 {
		return dst, ctxErr(ctx)
	}
	for _, r := range roots {
		r.Tree.RLock()
	}
	defer func() {
		for _, r := range roots {
			r.Tree.RUnlock()
		}
	}()
	sc := getScratch()
	s := knnSearch{roots: append(sc.roots[:0], roots...), tombs: tombs, query: q, trace: trace, ctx: ctx, k: k,
		queue: sc.nqueue, dists: sc.dists, pairs: sc.pairs, pairs2: sc.pairs2,
		hd: sc.bound[:0], hidx: sc.kidx[:0], res: sc.results[:0]}
	for _, r := range seed {
		s.res = append(s.res, r)
		s.hd = append(s.hd, r.Dist2)
		s.hidx = append(s.hidx, int32(len(s.res)-1))
		s.siftUp(len(s.hd) - 1)
	}
	s.run()
	if s.err == nil {
		dst = s.emit(dst)
	}
	sc.roots, sc.nqueue, sc.dists, sc.bound, sc.kidx, sc.pairs, sc.pairs2, sc.results =
		s.roots, s.queue, s.dists, s.hd, s.hidx, s.pairs, s.pairs2, s.res
	sc.release()
	if s.err != nil {
		return dst[:base], s.err
	}
	return dst, nil
}

// ctxErr returns ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// BruteForce returns the exact k nearest neighbors by scanning the given
// points — the k smallest in (Dist2, RID) order, as SearchCtxInto returns
// them; it is the oracle the tests and the recall experiments compare
// index results against, and doubles as the "sequential scan of the flat
// file" baseline of paper §3.2.
func BruteForce(pts []gist.Point, q geom.Vector, k int) []Result {
	if k <= 0 {
		return nil
	}
	// Keep the k best in a max-heap of size k.
	best := make([]Result, 0, k)
	behind := func(a, b Result) bool { return compareResults(a, b) > 0 }
	down := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(best) && behind(best[l], best[big]) {
				big = l
			}
			if r < len(best) && behind(best[r], best[big]) {
				big = r
			}
			if big == i {
				return
			}
			best[i], best[big] = best[big], best[i]
			i = big
		}
	}
	up := func() {
		i := len(best) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !behind(best[i], best[p]) {
				return
			}
			best[p], best[i] = best[i], best[p]
			i = p
		}
	}
	for _, p := range pts {
		r := Result{RID: p.RID, Key: p.Key, Dist2: q.Dist2(p.Key)}
		if len(best) < k {
			best = append(best, r)
			up()
		} else if behind(best[0], r) {
			best[0] = r
			down()
		}
	}
	// Sort ascending (the heap is max-first).
	out := make([]Result, len(best))
	copy(out, best)
	slices.SortFunc(out, compareResults)
	return out
}
