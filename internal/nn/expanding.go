package nn

import (
	"context"
	"slices"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/page"
)

// SearchExpandingCtxInto implements nearest-neighbor search the way the
// paper's access methods execute it: "Nearest neighbor queries work by
// finding points within a given distance of the query point, in essence
// asking expanding sphere queries" (§5). The GiST SEARCH template only
// answers predicate (range) queries, so k-NN is:
//
//  1. a greedy probe from the root to the most promising leaf, whose
//     contents furnish an initial radius estimate (the distance to the
//     k-th nearest point of that leaf, when it has that many);
//  2. range queries with that radius, doubling it and re-descending from
//     the root until at least k points fall inside the sphere.
//
// The final answer — the k nearest of the last sphere's contents — is
// exact: once a sphere holds k points, the true k nearest neighbors all lie
// within it. Unlike the best-first search, however, the I/O cost depends
// directly on bounding predicate quality at every iteration: each range
// descent visits precisely the subtrees whose predicate intersects the
// current sphere, so predicates with empty-corner excess (plain MBRs) pay
// for it on every sphere, which is the effect the paper's analysis
// measures and the JB/XJB predicates remove.
//
// Results are appended to dst; see the package documentation for the dst,
// trace and ctx contract.
func SearchExpandingCtxInto(ctx context.Context, t *gist.Tree, q geom.Vector, k int, trace *gist.Trace, dst []Result) ([]Result, error) {
	base := len(dst)
	total := t.Len()
	if k <= 0 || total == 0 {
		return dst, ctxErr(ctx)
	}
	ext := t.Ext()
	t.RLock()
	defer t.RUnlock()
	store := t.Store()
	sc := getScratch()

	// Greedy probe: descend along the minimal-MinDist2 child, pinning one
	// page at a time.
	n, err := store.Pin(t.RootID())
	if err != nil {
		sc.release()
		return dst[:base], err
	}
	for {
		trace.Record(n)
		if n.IsLeaf() {
			break
		}
		best, bestD := 0, ext.MinDist2(n.ChildPred(0), q)
		for i := 1; i < n.NumEntries(); i++ {
			if d := ext.MinDist2(n.ChildPred(i), q); d < bestD {
				best, bestD = i, d
			}
		}
		child, err := store.Pin(n.ChildID(best))
		store.Unpin(n)
		if err != nil {
			sc.release()
			return dst[:base], err
		}
		n = child
	}
	flat, dim := n.FlatKeys(), n.Dim()
	dists := geom.Dist2FlatBlock(q, flat[:n.NumEntries()*dim], dim, sc.dists[:0])
	store.Unpin(n)
	slices.Sort(dists)
	sc.dists = dists
	// Start from a low quantile of the probe leaf's distances: an STR leaf
	// can span several point clusters, so its diameter badly overestimates
	// the k-th neighbor distance; undershooting is cheap (the re-descent
	// revisits mostly-buffered pages) while overshooting drags the final
	// sphere across leaves that hold no neighbors.
	var radius2 float64
	if len(dists) == 0 {
		radius2 = 1e-6
	} else {
		est := min(k, len(dists)) / 4
		if est >= len(dists) {
			est = len(dists) - 1
		}
		radius2 = dists[est]
	}
	if radius2 <= 0 {
		// The probe leaf held ≥k copies of the query point; any positive
		// sphere suffices.
		radius2 = 1e-12
	}

	// Expanding sphere: re-descend from the root until the sphere holds k.
	// Each round harvests into the scratch result buffer; only the final
	// round's top k are copied out to dst.
	for {
		out := sc.results[:0]
		err := rangeHarvest(ctx, t, t.RootID(), q, radius2, trace, &out, sc)
		sc.results = out
		if err != nil {
			sc.release()
			return dst[:base], err
		}
		if len(out) >= k || len(out) >= total {
			sortResults(out)
			if k < len(out) {
				out = out[:k]
			}
			dst = append(dst, out...)
			sc.release()
			return dst, nil
		}
		radius2 *= 2 // grow the radius by √2 (distances are squared)
	}
}

// SearchSphereCtxInto executes one k-NN query as a single range query at the
// query's true k-th-neighbor radius: the radius is first computed exactly
// (without I/O accounting), then one range descent visits every subtree
// whose bounding predicate intersects that sphere. This is the idealized
// "expanding sphere" of paper §5 and Figure 9 — the same sphere for every
// access method, so the traced I/O isolates pure bounding-predicate
// quality: a leaf is read iff its predicate intersects the query sphere,
// and the read is excess iff the leaf holds no point inside the sphere.
// It is the default execution model of the amdb analysis in this
// reproduction. Results are appended to dst as for every engine in this
// package.
func SearchSphereCtxInto(ctx context.Context, t *gist.Tree, q geom.Vector, k int, trace *gist.Trace, dst []Result) ([]Result, error) {
	base := len(dst)
	if k <= 0 || t.Len() == 0 {
		return dst, ctxErr(ctx)
	}
	sc := getScratch()
	// Exact k-NN (no I/O accounting) for the true k-th-neighbor radius; the
	// results land in the scratch buffer and only the radius survives.
	exact, err := SearchCtxInto(ctx, t, q, k, nil, sc.results[:0])
	sc.results = exact
	if err != nil {
		sc.release()
		return dst[:base], err
	}
	if len(exact) == 0 {
		sc.release()
		return dst, nil
	}
	radius2 := exact[len(exact)-1].Dist2
	t.RLock()
	defer t.RUnlock()
	out := dst
	if err := rangeHarvest(ctx, t, t.RootID(), q, radius2, trace, &out, sc); err != nil {
		sc.release()
		return dst[:base], err
	}
	sc.release()
	sortResults(out[base:])
	if base+k < len(out) {
		out = out[:base+k]
	}
	return out, nil
}

// RangeCtxInto appends every point within squared distance radius2 of q to
// dst, nearest first, visiting exactly the subtrees whose bounding predicate
// intersects the query sphere. An empty tree returns dst unchanged; see the
// package documentation for the rest of the contract.
func RangeCtxInto(ctx context.Context, t *gist.Tree, q geom.Vector, radius2 float64, trace *gist.Trace, dst []Result) ([]Result, error) {
	base := len(dst)
	if t.Len() == 0 {
		return dst, ctxErr(ctx)
	}
	t.RLock()
	defer t.RUnlock()
	sc := getScratch()
	out := dst
	err := rangeHarvest(ctx, t, t.RootID(), q, radius2, trace, &out, sc)
	sc.release()
	if err != nil {
		return dst[:base], err
	}
	sortResults(out[base:])
	return out, nil
}

// compareResults orders results nearest first, breaking distance ties by
// RID. Because RIDs are unique within a result set the order is total, so
// the (unstable) sort below is deterministic.
func compareResults(a, b Result) int {
	if a.Dist2 != b.Dist2 {
		if a.Dist2 < b.Dist2 {
			return -1
		}
		return 1
	}
	switch {
	case a.RID < b.RID:
		return -1
	case a.RID > b.RID:
		return 1
	}
	return 0
}

// sortResults orders results nearest first, breaking distance ties by RID
// for determinism. The specialized introsort (sort.go) keeps the comparison
// inline on the query hot path.
func sortResults(out []Result) {
	sortResultsFast(out)
}

// rangeHarvest descends every subtree whose predicate intersects the query
// sphere, collecting the points inside it with their leaf attributions. The
// descent is an explicit stack of page ids (borrowed from sc) rather than
// recursion; children are pushed in reverse entry order so pages pop in
// exactly the depth-first pre-order the recursive form visited, and each
// page is pinned only while it is scanned. The caller must hold the tree's
// read lock; ctx is checked once per visited node so cancellation lands
// mid-traversal.
func rangeHarvest(ctx context.Context, t *gist.Tree, root page.PageID, q geom.Vector, radius2 float64, trace *gist.Trace, out *[]Result, sc *searchScratch) error {
	ext := t.Ext()
	store := t.Store()
	stack := append(sc.stack[:0], root)
	for len(stack) > 0 {
		if err := ctxErr(ctx); err != nil {
			sc.stack = stack
			return err
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := store.Pin(id)
		if err != nil {
			sc.stack = stack
			return err
		}
		trace.Record(n)
		if n.IsLeaf() {
			flat, d := n.FlatKeys(), n.Dim()
			sc.idx, sc.dists = geom.RangeFlatBlock(q, flat[:n.NumEntries()*d], d, radius2, sc.idx[:0], sc.dists[:0])
			for j, i := range sc.idx {
				*out = append(*out, Result{
					RID:   n.LeafRID(int(i)),
					Key:   n.LeafKey(int(i)),
					Dist2: sc.dists[j],
					Leaf:  n.ID(),
				})
			}
			store.Unpin(n)
			continue
		}
		for i := n.NumEntries() - 1; i >= 0; i-- {
			if ext.MinDist2(n.ChildPred(i), q) <= radius2 {
				stack = append(stack, n.ChildID(i))
			}
		}
		store.Unpin(n)
	}
	sc.stack = stack
	return nil
}
