package gist

import "fmt"

import "blobindex/internal/geom"

// Delete removes the (key, rid) pair from the tree, returning whether it was
// found. Underflowing nodes are dissolved and their remaining contents
// reinserted (the "condense tree" strategy), and ancestor predicates along
// the deletion path are recomputed so they stay tight (DELETE template of
// GiST §2.1). The Blobworld data set is static, so deletion exists for
// framework completeness and dynamic-workload experiments rather than the
// paper's core evaluation.
//
// A tree from NewFromStore is read-only: Delete returns ErrReadOnly without
// touching it. Otherwise the tree is held in a MemStore, where every node is
// the resident copy, so the pointers on the deletion path stay valid for the
// condense phase. Dissolved subtrees are freed page by page.
func (t *Tree) Delete(key geom.Vector, rid int64) (bool, error) {
	if t.mem == nil {
		return false, ErrReadOnly
	}
	if len(key) != t.dim {
		return false, fmt.Errorf("gist: key dimension %d, tree dimension %d", len(key), t.dim)
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	type step struct {
		node *Node
		idx  int
	}
	var path []step
	var findLeaf func(n *Node) (*Node, error)
	findLeaf = func(n *Node) (*Node, error) {
		if n.IsLeaf() {
			for i := range n.rids {
				if n.rids[i] == rid && n.LeafKey(i).Equal(key) {
					return n, nil
				}
			}
			return nil, nil
		}
		for i, pred := range n.preds {
			if !t.ext.Covers(pred, key) {
				continue
			}
			child, err := t.mem.Pin(n.children[i])
			if err != nil {
				return nil, err
			}
			path = append(path, step{n, i})
			leaf, err := findLeaf(child)
			if err != nil || leaf != nil {
				return leaf, err
			}
			path = path[:len(path)-1]
		}
		return nil, nil
	}
	root, err := t.mem.Pin(t.rootID)
	if err != nil {
		return false, err
	}
	leaf, err := findLeaf(root)
	if err != nil || leaf == nil {
		return false, err
	}

	// Remove the entry from the leaf.
	for i := range leaf.rids {
		if leaf.rids[i] == rid && leaf.LeafKey(i).Equal(key) {
			leaf.removeEntry(i)
			break
		}
	}
	t.size--

	// Condense: dissolve underflowing non-root nodes, collecting orphans.
	var orphans []Point
	minLeaf := int(t.minFill * float64(t.leafCap))
	node := leaf
	for i := len(path) - 1; i >= 0; i-- {
		parent, idx := path[i].node, path[i].idx
		under := false
		if node.IsLeaf() {
			under = len(node.rids) < minLeaf
		} else {
			under = len(node.children) < 2
		}
		if under {
			if err := t.collectPoints(node, &orphans); err != nil {
				return false, err
			}
			t.freeSubtree(node)
			parent.preds = append(parent.preds[:idx], parent.preds[idx+1:]...)
			parent.children = append(parent.children[:idx], parent.children[idx+1:]...)
		} else {
			// Recompute this child's predicate so it stays tight.
			parent.preds[idx] = t.tightPred(node)
		}
		node = parent
	}

	// Shrink the root while it is an internal node with a single child. The
	// surviving child becomes the root; the old root page is freed.
	cur := root
	for !cur.IsLeaf() && len(cur.children) == 1 {
		child, err := t.mem.Pin(cur.children[0])
		if err != nil {
			return false, err
		}
		t.mem.free(cur.id)
		t.rootID = child.id
		t.height--
		cur = child
	}
	if !cur.IsLeaf() && len(cur.children) == 0 {
		t.mem.free(cur.id)
		t.rootID = t.mem.alloc(0).id
		t.height = 1
	}

	// Reinsert orphans. insertLocked increments size, so subtract the
	// collected points first to keep the count consistent.
	t.size -= len(orphans)
	for _, p := range orphans {
		if err := t.insertLocked(p); err != nil {
			return false, err
		}
	}
	return true, nil
}

// collectPoints gathers every point stored beneath n into out. The keys are
// views into the (soon abandoned) flat blocks — they stay valid after the
// pages are freed, because the arrays are never recycled — and reinsertion
// copies them into their destination leaves.
func (t *Tree) collectPoints(n *Node, out *[]Point) error {
	if n.IsLeaf() {
		for i := range n.rids {
			*out = append(*out, Point{Key: n.LeafKey(i), RID: n.rids[i]})
		}
		return nil
	}
	for _, c := range n.children {
		child, err := t.mem.Pin(c)
		if err != nil {
			return err
		}
		if err := t.collectPoints(child, out); err != nil {
			return err
		}
	}
	return nil
}

// freeSubtree releases every page of the subtree rooted at n (whose points
// have already been collected for reinsertion). Pages that cannot be pinned
// are skipped — their contents are already safe in the orphan list.
func (t *Tree) freeSubtree(n *Node) {
	if !n.IsLeaf() {
		for _, c := range n.children {
			if child, err := t.mem.Pin(c); err == nil {
				t.freeSubtree(child)
			}
		}
	}
	t.mem.free(n.id)
}

// tightPred recomputes a node's predicate from its current contents.
func (t *Tree) tightPred(n *Node) Predicate {
	if n.IsLeaf() {
		return t.ext.FromPoints(n.leafKeys())
	}
	return t.ext.UnionPreds(n.preds)
}
