package nn

import (
	"context"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/page"
)

// knnSearch is the bounded k-NN engine behind SearchRootsCtxInto and its
// one-tree form SearchCtxInto. It splits the classic Hjaltason–Samet single
// queue in two:
//
//   - the priority queue holds ONLY unexpanded subtrees, ordered by
//     (MinDist2, discovery order);
//   - data points go straight into a k-bounded max-heap of the best points
//     seen so far (worst at the root), which doubles as the result set.
//
// The single-queue formulation pays heap traffic per scored point — push,
// eventual pop, and ~70 bytes of item copied per sift level; profiling the
// 48k-blob 200-NN workload put over half the query in that traffic. Here a
// point costs one compare against the root of the bound heap, and only an
// improving point sifts 12-byte lanes (distance + result index, with the
// Result payload written once into an append-only buffer).
//
// The output is the k smallest (distance, RID) pairs in that order — the
// (Dist2, RID) total order every tier above sorts by, so a point set split
// across segments or shards merges back to exactly this answer even under
// exact distance ties. A tie is broken, not dropped: a point whose
// distance equals the k-th best displaces it when its RID is smaller, and a
// subtree whose MinDist2 equals the k-th best distance is still expanded,
// since it may hold such a point. Only strictly farther subtrees and points
// are provably out. On continuously distributed data exact ties do not occur
// and the search visits exactly the nodes the classic single-queue search
// visits, in the same (MinDist2, seq) order.
type knnSearch struct {
	roots []Root
	tombs map[int64]uint64
	gen   uint64 // the generation of the root whose leaf is being scored
	query geom.Vector
	trace *gist.Trace
	ctx   context.Context
	err   error
	k     int
	queue npq
	seq   int32
	dists []float64

	// The bound heap: parallel lanes keyed by (hd desc, RID desc), hidx
	// pointing into the append-only res buffer that holds each entry's RID.
	hd     []float64
	hidx   []int32
	res    []Result
	pairs  []knnPair // emit-time sort scratch
	pairs2 []knnPair // emit-time scatter space (bucketSortPairs)
}

// nodeItem is one frontier entry: a subtree of roots[root] at its admissible
// lower bound. Unlike the Iterator's item it carries no Result payload, so
// the frontier heap sifts 24 bytes per level instead of ~70.
type nodeItem struct {
	d     float64
	child page.PageID
	seq   int32
	root  int32
}

func nodeLess(a, b nodeItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.seq < b.seq
}

// npq is a 4-ary min-heap of frontier nodes ordered by (d, seq) — the
// subtree part of the classic single-queue order, which is all the bounded
// search and the wholesale harvest of SearchApproxCtxInto need. Four-way
// branching halves the sift depth and keeps a parent's children in adjacent
// slots; since (d, seq) keys are unique, the pop sequence is the same as any
// other heap arity's, so layout is a pure performance choice.
type npq []nodeItem

func (q *npq) push(x nodeItem) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !nodeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *npq) pop() nodeItem {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 4*i + 1
		if l >= n {
			break
		}
		j := l
		for c := l + 1; c < l+4 && c < n; c++ {
			if nodeLess(h[c], h[j]) {
				j = c
			}
		}
		if !nodeLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return top
}

// knnPair is emit's sort element: one kept neighbor's distance, RID and res
// index. Sorting these small pairs with the specialized introsort beats both
// a heap drain and an index sort that chases res entries on every compare.
type knnPair struct {
	d   float64
	rid int64
	ix  int32
}

func (s *knnSearch) full() bool { return len(s.hd) == s.k }

func (s *knnSearch) canceled() bool {
	if s.ctx == nil {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		return true
	}
	return false
}

// worse reports whether heap entry i ranks behind entry j — farther, or as
// far with a larger RID. The RID lookup runs only on an exact distance tie.
func (s *knnSearch) worse(i, j int) bool {
	if s.hd[i] != s.hd[j] {
		return s.hd[i] > s.hd[j]
	}
	return s.res[s.hidx[i]].RID > s.res[s.hidx[j]].RID
}

func (s *knnSearch) swap(i, j int) {
	s.hd[i], s.hd[j] = s.hd[j], s.hd[i]
	s.hidx[i], s.hidx[j] = s.hidx[j], s.hidx[i]
}

func (s *knnSearch) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.worse(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

// replaceRoot installs (d, ix) in place of the current worst entry and
// restores the heap with a top-down sift. Improving points usually land
// just under the displaced bound, so the sift typically stops within a
// level or two.
func (s *knnSearch) replaceRoot(d float64, ix int32) {
	n := len(s.hd)
	s.hd[0], s.hidx[0] = d, ix
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && s.worse(r, l) {
			j = r
		}
		if !s.worse(j, i) {
			return
		}
		s.swap(i, j)
		i = j
	}
}

// offer folds one scored leaf point into the bound heap. A point that beats
// the bound is dropped if a tombstone masks it in its tree's generation.
func (s *knnSearch) offer(d float64, n *gist.Node, i int) {
	rid, full := n.LeafRID(i), len(s.hd) == s.k
	if full && (d > s.hd[0] || d == s.hd[0] && rid >= s.res[s.hidx[0]].RID) ||
		len(s.tombs) > 0 && s.gen < s.tombs[rid] {
		return // behind the k-th best in (Dist2, RID) order, or deleted
	}
	s.res = append(s.res, Result{RID: rid, Key: n.LeafKey(i), Dist2: d, Leaf: n.ID()})
	if full {
		s.replaceRoot(d, int32(len(s.res)-1))
		return
	}
	s.hd = append(s.hd, d)
	s.hidx = append(s.hidx, int32(len(s.res)-1))
	s.siftUp(len(s.hd) - 1)
}

// expand pins one subtree root, scores its contents, and releases the pin.
func (s *knnSearch) expand(top nodeItem) bool {
	r := &s.roots[top.root]
	n, err := r.Tree.Store().Pin(top.child)
	if err != nil {
		s.err = err
		return false
	}
	s.trace.Record(n)
	if n.IsLeaf() {
		s.gen = r.Gen
		flat, d := n.FlatKeys(), n.Dim()
		s.dists = geom.Dist2FlatBlock(s.query, flat[:n.NumEntries()*d], d, s.dists[:0])
		if len(s.hd) == s.k {
			// Hot path: the heap is full, so almost every point loses to
			// the k-th best with one compare, no call; an exact tie goes to
			// offer, which breaks it by RID.
			bound := s.hd[0]
			for i, dist := range s.dists {
				if dist > bound {
					continue
				}
				s.offer(dist, n, i)
				bound = s.hd[0]
			}
		} else {
			for i, dist := range s.dists {
				s.offer(dist, n, i)
			}
		}
	} else {
		ext := r.Tree.Ext()
		for i := 0; i < n.NumEntries(); i++ {
			m := ext.MinDist2(n.ChildPred(i), s.query)
			if s.full() && m > s.hd[0] {
				continue // provably beyond the k-th best
			}
			s.queue.push(nodeItem{d: m, child: n.ChildID(i), seq: s.seq, root: top.root})
			s.seq++
		}
	}
	r.Tree.Store().Unpin(n)
	return true
}

// run descends from every root until no frontier subtree can beat the k-th
// best.
func (s *knnSearch) run() {
	for i := range s.roots {
		s.queue.push(nodeItem{d: 0, child: s.roots[i].Tree.RootID(), seq: s.seq, root: int32(i)})
		s.seq++
	}
	for len(s.queue) > 0 {
		if s.canceled() {
			return
		}
		top := s.queue.pop()
		if s.full() && top.d > s.hd[0] {
			return // frontier minimum cannot reach the k-th best: done
		}
		if !s.expand(top) {
			return
		}
	}
}

// emit appends the kept neighbors to dst in ascending (distance, RID)
// order. Sorting (distance, RID, index) pairs is cheaper than a heap drain:
// one sort beats k log k multi-lane sifts.
func (s *knnSearch) emit(dst []Result) []Result {
	ps := s.pairs[:0]
	for i, d := range s.hd {
		ix := s.hidx[i]
		ps = append(ps, knnPair{d: d, rid: s.res[ix].RID, ix: ix})
	}
	if cap(s.pairs2) < len(ps) {
		s.pairs2 = make([]knnPair, len(ps))
	}
	bucketSortPairs(ps, s.pairs2[:len(ps)])
	for _, p := range ps {
		dst = append(dst, s.res[p.ix])
	}
	s.pairs = ps
	return dst
}
