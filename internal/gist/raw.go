package gist

import (
	"fmt"

	"blobindex/internal/geom"
)

// RawNode is a decoded tree node, the interchange form used when loading a
// persisted tree (package blobindex/internal/pagefile). Leaves carry Keys
// and RIDs; internal nodes carry Preds and Children.
type RawNode struct {
	Level    int
	Keys     []geom.Vector
	RIDs     []int64
	Preds    []Predicate
	Children []*RawNode
}

// FromRaw assembles a Tree from a decoded node graph, assigns fresh page
// ids in depth-first order, and validates the result with CheckIntegrity.
func FromRaw(ext Extension, cfg Config, root *RawNode) (*Tree, error) {
	t, err := New(ext, cfg)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return t, nil
	}

	size := 0
	var convert func(rn *RawNode) (*Node, error)
	convert = func(rn *RawNode) (*Node, error) {
		n := t.mem.alloc(rn.Level)
		if rn.Level == 0 {
			if len(rn.Keys) != len(rn.RIDs) {
				return nil, fmt.Errorf("gist: raw leaf has %d keys, %d rids",
					len(rn.Keys), len(rn.RIDs))
			}
			n.flatKeys = make([]float64, 0, len(rn.Keys)*t.dim)
			for _, k := range rn.Keys {
				if len(k) != t.dim {
					return nil, fmt.Errorf("gist: raw key dimension %d, want %d", len(k), t.dim)
				}
				n.flatKeys = append(n.flatKeys, k...)
			}
			n.rids = rn.RIDs
			size += len(rn.Keys)
			return n, nil
		}
		if len(rn.Preds) != len(rn.Children) {
			return nil, fmt.Errorf("gist: raw node has %d preds, %d children",
				len(rn.Preds), len(rn.Children))
		}
		n.preds = rn.Preds
		for _, c := range rn.Children {
			if c.Level != rn.Level-1 {
				return nil, fmt.Errorf("gist: raw child level %d under level %d",
					c.Level, rn.Level)
			}
			child, err := convert(c)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child.id)
		}
		return n, nil
	}
	newRoot, err := convert(root)
	if err != nil {
		return nil, err
	}
	// Retire the placeholder empty root New allocated as page 0; converted
	// nodes keep their depth-first ids starting at 1.
	t.mem.free(t.rootID)
	t.rootID = newRoot.id
	t.height = root.Level + 1
	t.size = size
	if err := t.CheckIntegrity(); err != nil {
		return nil, fmt.Errorf("gist: reconstructed tree invalid: %w", err)
	}
	return t, nil
}
