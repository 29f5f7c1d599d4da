package gist

import "fmt"

// Insert adds a (key, RID) pair to the tree, descending along minimal
// penalty children, splitting overflowing nodes with the extension's
// PickSplit methods, and propagating splits and predicate adjustments to the
// root (INSERT template of GiST §2.1). A tree from NewFromStore is
// read-only: Insert returns ErrReadOnly without touching it.
//
// The tree is held in a MemStore, where every node is the resident copy, so
// the pointers collected on the descent stay valid for the split phase.
func (t *Tree) Insert(p Point) error {
	if t.mem == nil {
		return ErrReadOnly
	}
	if len(p.Key) != t.dim {
		return fmt.Errorf("gist: key dimension %d, tree dimension %d", len(p.Key), t.dim)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(p)
}

func (t *Tree) insertLocked(p Point) error {
	// Descend to a leaf, remembering the path and chosen child indexes.
	type step struct {
		node *Node
		idx  int
	}
	var path []step
	n, err := t.mem.Pin(t.rootID)
	if err != nil {
		return err
	}
	for !n.IsLeaf() {
		best, bestPenalty := 0, t.ext.Penalty(n.preds[0], p.Key)
		for i := 1; i < len(n.preds); i++ {
			if pen := t.ext.Penalty(n.preds[i], p.Key); pen < bestPenalty {
				best, bestPenalty = i, pen
			}
		}
		path = append(path, step{n, best})
		if n, err = t.mem.Pin(n.children[best]); err != nil {
			return err
		}
	}

	n.appendEntry(p.Key, p.RID)
	t.size++

	// Adjust predicates along the path so every ancestor covers the new key.
	for _, s := range path {
		s.node.preds[s.idx] = t.ext.Extend(s.node.preds[s.idx], p.Key)
	}

	// Split overflowing nodes bottom-up. path[i] is the parent of the node
	// at path[i+1] (or of the leaf, for the last element).
	over := n
	for i := len(path) - 1; ; i-- {
		if !t.overflows(over) {
			return nil
		}
		sibling, leftPred, rightPred := t.split(over)
		if i < 0 {
			// Splitting the root: grow the tree by one level.
			newRoot := t.mem.alloc(over.level + 1)
			newRoot.preds = []Predicate{leftPred, rightPred}
			newRoot.children = []PageID{over.id, sibling.id}
			t.rootID = newRoot.id
			t.height++
			return nil
		}
		parent, idx := path[i].node, path[i].idx
		parent.preds[idx] = leftPred
		parent.preds = append(parent.preds, rightPred)
		parent.children = append(parent.children, sibling.id)
		over = parent
	}
}

func (t *Tree) overflows(n *Node) bool {
	if n.IsLeaf() {
		return len(n.rids) > t.leafCap
	}
	return len(n.children) > t.innerCap
}

// split divides an overflowing node in two, returning the new sibling and
// the predicates of the (now smaller) original node and the sibling.
func (t *Tree) split(n *Node) (sibling *Node, leftPred, rightPred Predicate) {
	sibling = t.mem.alloc(n.level)
	if n.IsLeaf() {
		li, ri := t.ext.PickSplitPoints(n.leafKeys())
		d := n.dim
		leftFlat := make([]float64, 0, len(li)*d)
		leftRIDs := make([]int64, 0, len(li))
		for _, i := range li {
			leftFlat = append(leftFlat, n.flatKeys[i*d:(i+1)*d]...)
			leftRIDs = append(leftRIDs, n.rids[i])
		}
		sibling.flatKeys = make([]float64, 0, len(ri)*d)
		sibling.rids = make([]int64, 0, len(ri))
		for _, i := range ri {
			sibling.flatKeys = append(sibling.flatKeys, n.flatKeys[i*d:(i+1)*d]...)
			sibling.rids = append(sibling.rids, n.rids[i])
		}
		// Fresh blocks for both halves: views into the old block stay intact.
		n.flatKeys, n.rids = leftFlat, leftRIDs
		return sibling, t.ext.FromPoints(n.leafKeys()), t.ext.FromPoints(sibling.leafKeys())
	}
	li, ri := t.ext.PickSplitPreds(n.preds)
	leftPreds := make([]Predicate, 0, len(li))
	leftChildren := make([]PageID, 0, len(li))
	for _, i := range li {
		leftPreds = append(leftPreds, n.preds[i])
		leftChildren = append(leftChildren, n.children[i])
	}
	for _, i := range ri {
		sibling.preds = append(sibling.preds, n.preds[i])
		sibling.children = append(sibling.children, n.children[i])
	}
	n.preds, n.children = leftPreds, leftChildren
	return sibling, t.ext.UnionPreds(n.preds), t.ext.UnionPreds(sibling.preds)
}
