package gist

import "blobindex/internal/geom"

// TightenPredicates recomputes every bounding predicate in the tree from the
// raw points stored beneath it, using the extension's FromPoints at every
// level. Insertion maintains predicates conservatively — in particular the
// JB/XJB extensions drop corner bites whenever an MBR grows — so an
// insertion-built tree accumulates slack. One tightening pass restores the
// bulk-load-quality predicates; together with Insert it provides the
// insertion support for JB and XJB that the paper lists as future work (§8).
//
// The pass visits every node once and costs one FromPoints call per entry
// over the points of the entry's subtree. Every internal node is mutated;
// leaves are only read. A tree from NewFromStore is read-only:
// TightenPredicates returns ErrReadOnly without touching it.
func (t *Tree) TightenPredicates() error {
	if t.mem == nil {
		return ErrReadOnly
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.tightenID(t.rootID)
	return err
}

// tightenID recomputes the predicates of the node's entries and returns all
// points stored beneath it.
func (t *Tree) tightenID(id PageID) ([]geom.Vector, error) {
	n, err := t.mem.Pin(id)
	if err != nil {
		return nil, err
	}
	if n.IsLeaf() {
		return n.leafKeys(), nil
	}
	var all []geom.Vector
	for i, child := range n.children {
		pts, err := t.tightenID(child)
		if err != nil {
			return nil, err
		}
		if len(pts) > 0 {
			n.preds[i] = t.ext.FromPoints(pts)
		}
		all = append(all, pts...)
	}
	return all, nil
}
