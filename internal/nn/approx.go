package nn

import (
	"context"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
)

// SearchApproxCtxInto implements the Blobworld access-method query of paper
// §2.3: a "quick and dirty" estimate of the k nearest neighbors. The tree
// is descended best-first on the bounding predicates' MinDist2 — but unlike
// the exact search, every visited leaf is harvested wholesale and the
// search stops as soon as k candidates have been gathered; the k nearest of
// the harvest are returned.
//
// The result set is approximate: a leaf holding true neighbors may never be
// visited if other leaves' predicates looked closer. That is the intended
// trade — Blobworld re-ranks the AM's few hundred candidates with the full
// feature vectors, so the AM only has to get the eventual top few dozen
// into its top few hundred. Crucially, the number of leaf I/Os now depends
// directly on predicate quality: an access method whose predicates rank the
// truly-relevant leaves first stops after ~k/leafsize I/Os, which is how
// the paper's JB tree executes 200-NN queries in barely more than two leaf
// reads while the R-tree wanders through excess leaves (§6). Results are
// appended to dst as for every engine in this package.
func SearchApproxCtxInto(ctx context.Context, t *gist.Tree, q geom.Vector, k int, trace *gist.Trace, dst []Result) ([]Result, error) {
	base := len(dst)
	if k <= 0 || t.Len() == 0 {
		return dst, ctxErr(ctx)
	}
	ext := t.Ext()
	t.RLock()
	defer t.RUnlock()
	store := t.Store()
	sc := getScratch()
	queue := sc.nqueue
	seq := int32(1)
	queue.push(nodeItem{d: 0, seq: 0, child: t.RootID()})

	for len(queue) > 0 && len(dst)-base < k {
		if err := ctxErr(ctx); err != nil {
			sc.nqueue = queue
			sc.release()
			return dst[:base], err
		}
		it := queue.pop()
		n, err := store.Pin(it.child)
		if err != nil {
			sc.nqueue = queue
			sc.release()
			return dst[:base], err
		}
		trace.Record(n)
		if n.IsLeaf() {
			flat, d := n.FlatKeys(), n.Dim()
			sc.dists = geom.Dist2FlatBlock(q, flat[:n.NumEntries()*d], d, sc.dists[:0])
			for i, dist := range sc.dists {
				dst = append(dst, Result{
					RID:   n.LeafRID(i),
					Key:   n.LeafKey(i),
					Dist2: dist,
					Leaf:  n.ID(),
				})
			}
			store.Unpin(n)
			continue
		}
		for i := 0; i < n.NumEntries(); i++ {
			queue.push(nodeItem{d: ext.MinDist2(n.ChildPred(i), q), seq: seq, child: n.ChildID(i)})
			seq++
		}
		store.Unpin(n)
	}
	sc.nqueue = queue
	sc.release()
	sortResults(dst[base:])
	if base+k < len(dst) {
		dst = dst[:base+k]
	}
	return dst, nil
}
