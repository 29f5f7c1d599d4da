package nn

import (
	"context"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
)

// Iterator yields the neighbors of a query point one at a time in
// increasing distance order — the incremental form of the Hjaltason–Samet
// best-first search. It reads tree pages lazily: the frontier holds child
// page ids, and a page is pinned against the tree's node store only for the
// moment it is expanded, so asking for the first few neighbors of a
// selective access method touches only a handful of pages — which is what
// makes the "give me images until the user is satisfied" interaction of the
// Blobworld front end cheap, and what lets the same code serve demand-paged
// on-disk indexes within a bounded buffer pool.
//
// An Iterator takes the tree's read lock for the duration of each Next
// call, so concurrent iterators and searches coexist with a single writer.
// The frontier it accumulates between calls is not writer-proof, however:
// a mutation between calls can reorganize or free pages the queue still
// references, so an Iterator must not be used across modifications of the
// tree. An Iterator itself is single-goroutine state.
type Iterator struct {
	tree  *gist.Tree
	store gist.NodeStore
	query geom.Vector
	trace *gist.Trace
	ctx   context.Context // nil: never canceled
	err   error           // sticky ctx or store error once failed
	queue pq
	seq   int
	dists []float64 // whole-leaf block-scoring scratch
}

// NewIterator starts an incremental nearest-neighbor scan from q. If trace
// is non-nil every page read is recorded as the iteration proceeds. Once ctx
// is done, Next returns ok == false and Err reports the cause; a nil ctx
// means no cancellation.
func NewIterator(ctx context.Context, t *gist.Tree, q geom.Vector, trace *gist.Trace) *Iterator {
	it := &Iterator{tree: t, store: t.Store(), query: q, trace: trace, ctx: ctx}
	if t.Len() > 0 {
		t.RLock()
		it.push(item{dist2: 0, child: t.RootID(), isNode: true})
		t.RUnlock()
	}
	return it
}

// Err returns the context or page-store error that stopped the iteration,
// if any.
func (it *Iterator) Err() error { return it.err }

func (it *Iterator) push(x item) {
	x.seq = it.seq
	it.seq++
	it.queue.pushItem(x)
}

// canceled records and reports a pending context cancellation.
func (it *Iterator) canceled() bool {
	if it.err != nil {
		return true
	}
	if it.ctx == nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		return true
	}
	return false
}

// expand pins the page behind top, records the access, and pushes the
// node's contents onto the frontier: result items for leaf entries, child
// page ids for internal entries. Leaf entries are scored with one
// whole-block kernel call rather than per key. The pin is released before
// returning.
func (it *Iterator) expand(top item) bool {
	n, err := it.store.Pin(top.child)
	if err != nil {
		it.err = err
		return false
	}
	it.trace.Record(n)
	if n.IsLeaf() {
		flat, d := n.FlatKeys(), n.Dim()
		it.dists = geom.Dist2FlatBlock(it.query, flat[:n.NumEntries()*d], d, it.dists[:0])
		for i, dist := range it.dists {
			it.push(item{
				dist2: dist,
				res:   Result{RID: n.LeafRID(i), Key: n.LeafKey(i), Dist2: dist, Leaf: n.ID()},
			})
		}
	} else {
		ext := it.tree.Ext()
		for i := 0; i < n.NumEntries(); i++ {
			d := ext.MinDist2(n.ChildPred(i), it.query)
			it.push(item{
				dist2:  d,
				child:  n.ChildID(i),
				isNode: true,
			})
		}
	}
	it.store.Unpin(n)
	return true
}

// Next returns the next-nearest neighbor, or ok == false when the tree is
// exhausted, the iterator's context is canceled, or a page read failed
// (see Err).
func (it *Iterator) Next() (Result, bool) {
	it.tree.RLock()
	defer it.tree.RUnlock()
	for len(it.queue) > 0 {
		if it.canceled() {
			return Result{}, false
		}
		top := it.queue.popItem()
		if !top.isNode {
			return top.res, true
		}
		if !it.expand(top) {
			return Result{}, false
		}
	}
	return Result{}, false
}
