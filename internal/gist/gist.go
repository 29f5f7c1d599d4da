// Package gist implements a Generalized Search Tree (GiST) in the spirit of
// Hellerstein, Naughton and Pfeffer (VLDB 1995): a height-balanced, multi-way
// tree whose search, insertion and deletion "template" algorithms are
// parameterized by a small set of extension methods supplied by each access
// method. The six access methods of the Blobworld paper (R-tree, SS-tree,
// SR-tree, aMAP, JB, XJB) are all implemented as Extensions over this one
// tree (package blobindex/internal/am).
//
// Leaves store (key, RID) pairs, where keys are points; internal nodes store
// (bounding predicate, child) pairs. The bounding predicate (BP) of an entry
// covers every key stored beneath it. Node fanout is derived from the page
// size and the BP's on-page footprint, so access methods with bigger BPs
// build shorter-fanout, taller trees — the central tension the paper's XJB
// design navigates.
//
// # Concurrency
//
// A Tree follows a concurrent-readers, single-writer discipline guarded by
// one tree-level RWMutex. Every reading entry point in this package
// (RangeSearch, Lookup, Walk, CheckIntegrity, the stats accessors) takes
// the read lock itself; the search algorithms in blobindex/internal/nn
// traverse nodes directly and participate via the exported RLock/RUnlock
// pair. Mutating operations (Insert, Delete, TightenPredicates) exist only
// for trees held in memory (see NodeStore) and take the exclusive lock, so
// any number of searches may run concurrently with each other and are
// serialized only against writers. Traces are per-query state and must not
// be shared between goroutines.
package gist

import (
	"fmt"
	"sync"

	"blobindex/internal/geom"
	"blobindex/internal/page"
)

// Predicate is an opaque bounding predicate value. Its concrete type is
// owned by the Extension that produced it; the tree only moves predicates
// around and passes them back to the extension.
type Predicate any

// Extension supplies the access-method-specific behavior that specializes
// the GiST into a particular tree (GiST "extension methods", paper §2.1).
type Extension interface {
	// Name identifies the access method in reports ("rtree", "xjb", ...).
	Name() string

	// BPWords returns the number of float64 words one bounding predicate
	// occupies on a page for dim-dimensional data. It determines internal
	// node fanout (paper Table 3).
	BPWords(dim int) int

	// FromPoints builds a predicate covering the given points. Bulk loading
	// calls it at every level with the full set of points stored beneath the
	// node, which is what lets JB/XJB place tight bites on inner nodes too.
	FromPoints(pts []geom.Vector) Predicate

	// UnionPreds builds a predicate covering all the given child predicates.
	// Used on insertion splits of internal nodes, where the original points
	// are no longer at hand.
	UnionPreds(preds []Predicate) Predicate

	// Extend returns a predicate covering both bp and point p, used to adjust
	// ancestor predicates along an insertion path.
	Extend(bp Predicate, p geom.Vector) Predicate

	// Covers reports whether bp covers point p. Search correctness and the
	// tree integrity checker rely on it.
	Covers(bp Predicate, p geom.Vector) bool

	// MinDist2 returns an admissible lower bound on the squared distance
	// from q to any point covered by bp. It drives both range consistency
	// (MinDist2 ≤ r²) and best-first nearest-neighbor search.
	MinDist2(bp Predicate, q geom.Vector) float64

	// Penalty returns the cost of inserting p into the subtree under bp;
	// insertion descends into the child with the smallest penalty.
	Penalty(bp Predicate, p geom.Vector) float64

	// PickSplitPoints partitions the indices of an overflowing leaf's points
	// into two non-empty groups.
	PickSplitPoints(pts []geom.Vector) (left, right []int)

	// PickSplitPreds partitions the indices of an overflowing internal
	// node's child predicates into two non-empty groups.
	PickSplitPreds(preds []Predicate) (left, right []int)
}

// Point is one indexed datum: a key vector and its record identifier.
type Point struct {
	Key geom.Vector
	RID int64
}

// Node is one tree node, occupying exactly one page.
//
// Leaves store their keys in one contiguous dim-strided block (structure of
// arrays) rather than as one heap vector per point: a leaf scan is then a
// single sequential read of at most a page of float64s, which is what the
// flat distance kernels of blobindex/internal/geom are built against.
type Node struct {
	id    page.PageID
	level int // 0 = leaf; root has the highest level
	dim   int // key dimensionality (copied from the tree)

	// Leaf payload (level == 0). Entry i's key occupies
	// flatKeys[i*dim : (i+1)*dim].
	flatKeys []float64
	rids     []int64

	// Internal payload (level > 0). Children are referenced by page id, not
	// pointer: following an edge always goes through the tree's NodeStore,
	// which is what lets the same traversal code run over an in-memory store
	// or a demand-paged file store.
	preds    []Predicate
	children []page.PageID
}

// ID returns the node's page id.
func (n *Node) ID() page.PageID { return n.id }

// Level returns the node's level; leaves are level 0.
func (n *Node) Level() int { return n.level }

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.level == 0 }

// Dim returns the key dimensionality of the node's tree.
func (n *Node) Dim() int { return n.dim }

// NumEntries returns the number of entries stored in the node.
func (n *Node) NumEntries() int {
	if n.IsLeaf() {
		return len(n.rids)
	}
	return len(n.children)
}

// FlatKeys returns a leaf's keys as one contiguous dim-strided block, for
// use with the geom flat kernels (geom.Dist2Flat). Callers must not mutate
// the returned slice.
func (n *Node) FlatKeys() []float64 { return n.flatKeys }

// LeafKey returns the i-th key of a leaf node as a zero-copy view into the
// node's flat key block. The view remains valid after later inserts and
// deletes: the block only ever grows by appending or is replaced wholesale,
// never mutated in place.
func (n *Node) LeafKey(i int) geom.Vector {
	d := n.dim
	return geom.Vector(n.flatKeys[i*d : (i+1)*d : (i+1)*d])
}

// LeafRID returns the i-th record identifier of a leaf node.
func (n *Node) LeafRID(i int) int64 { return n.rids[i] }

// leafKeys materializes per-entry key views, the form the extension
// callbacks (FromPoints, PickSplitPoints) take.
func (n *Node) leafKeys() []geom.Vector {
	out := make([]geom.Vector, len(n.rids))
	for i := range out {
		out[i] = n.LeafKey(i)
	}
	return out
}

// appendEntry adds a (key, rid) pair to a leaf, copying the coordinates
// into the flat block.
func (n *Node) appendEntry(key geom.Vector, rid int64) {
	n.flatKeys = append(n.flatKeys, key...)
	n.rids = append(n.rids, rid)
}

// removeEntry deletes the i-th entry of a leaf. The flat block is rebuilt
// rather than shifted in place, so LeafKey views handed out earlier keep
// their contents.
func (n *Node) removeEntry(i int) {
	d := n.dim
	flat := make([]float64, 0, len(n.flatKeys)-d)
	flat = append(flat, n.flatKeys[:i*d]...)
	flat = append(flat, n.flatKeys[(i+1)*d:]...)
	n.flatKeys = flat
	n.rids = append(n.rids[:i], n.rids[i+1:]...)
}

// ChildPred returns the bounding predicate of the i-th child entry.
func (n *Node) ChildPred(i int) Predicate { return n.preds[i] }

// ChildID returns the page id of the i-th child. The node itself is fetched
// by pinning the id against the tree's store.
func (n *Node) ChildID(i int) page.PageID { return n.children[i] }

// Tree is a GiST specialized by an Extension.
type Tree struct {
	mu sync.RWMutex

	ext      Extension
	dim      int
	pageSize int
	leafCap  int
	innerCap int
	minFill  float64 // minimum fill fraction enforced on splits/deletes

	store  NodeStore
	mem    *MemStore // the writable store; nil for a NewFromStore tree
	rootID page.PageID
	height int // number of levels (a lone leaf root has height 1)
	size   int // number of stored points
}

// Config carries the tree construction parameters.
type Config struct {
	// Dim is the dimensionality of the indexed keys. Required.
	Dim int
	// PageSize is the page size in bytes. Defaults to page.DefaultPageSize.
	PageSize int
	// MinFill is the minimum node fill fraction for insertion splits,
	// in (0, 0.5]. Defaults to 0.4 (Guttman's recommendation).
	MinFill float64
}

func (c *Config) fillDefaults() error {
	if c.Dim <= 0 {
		return fmt.Errorf("gist: Dim must be positive, got %d", c.Dim)
	}
	if c.PageSize == 0 {
		c.PageSize = page.DefaultPageSize
	}
	if c.PageSize < 256 {
		return fmt.Errorf("gist: PageSize %d too small", c.PageSize)
	}
	if c.MinFill == 0 {
		c.MinFill = 0.4
	}
	if c.MinFill < 0 || c.MinFill > 0.5 {
		return fmt.Errorf("gist: MinFill %v outside (0, 0.5]", c.MinFill)
	}
	return nil
}

// New returns an empty tree for the given extension and configuration.
func New(ext Extension, cfg Config) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	mem := NewMemStore(cfg.Dim)
	t := &Tree{
		ext:      ext,
		dim:      cfg.Dim,
		pageSize: cfg.PageSize,
		leafCap:  page.LeafCapacity(cfg.PageSize, cfg.Dim),
		innerCap: page.Capacity(cfg.PageSize, ext.BPWords(cfg.Dim)),
		minFill:  cfg.MinFill,
		store:    mem,
		mem:      mem,
	}
	t.rootID = mem.alloc(0).id
	t.height = 1
	return t, nil
}

// Ext returns the extension specializing this tree.
func (t *Tree) Ext() Extension { return t.ext }

// Store returns the node store backing this tree. Traversal code pins node
// ids against it; see the NodeStore pin rules.
func (t *Tree) Store() NodeStore { return t.store }

// RootID returns the page id of the root node. Callers traversing from it
// while a writer may be active must hold the read lock (RLock) for the
// duration of the traversal.
func (t *Tree) RootID() page.PageID {
	return t.rootID
}

// Root pins the root node, unpins it, and returns it — a convenience for
// analysis and test code. Over a MemStore the returned node is the stable
// resident copy; over an eviction-capable store it is a read-only snapshot
// that must not be mutated. Returns nil if the root cannot be loaded.
func (t *Tree) Root() *Node {
	n, err := t.store.Pin(t.rootID)
	if err != nil {
		return nil
	}
	t.store.Unpin(n)
	return n
}

// RLock acquires the tree's read lock. It exists for search code (package
// blobindex/internal/nn) that walks nodes directly via Root/Child: hold it
// across the traversal and pair it with RUnlock. Calls must not nest — a
// goroutine already holding the read lock can deadlock re-acquiring it if
// a writer arrives in between.
func (t *Tree) RLock() { t.mu.RLock() }

// RUnlock releases the read lock taken by RLock.
func (t *Tree) RUnlock() { t.mu.RUnlock() }

// Height returns the number of levels in the tree (1 for a lone leaf root).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// Len returns the number of stored points.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Dim returns the key dimensionality.
func (t *Tree) Dim() int { return t.dim }

// LeafCapacity returns the maximum number of entries per leaf.
func (t *Tree) LeafCapacity() int { return t.leafCap }

// InnerCapacity returns the maximum number of entries per internal node.
func (t *Tree) InnerCapacity() int { return t.innerCap }

// PageSize returns the configured page size in bytes.
func (t *Tree) PageSize() int { return t.pageSize }

// NumPages returns the total number of pages (nodes) in the tree, counted
// by a full traversal. On a store I/O failure the count so far is returned.
func (t *Tree) NumPages() int {
	total := 0
	t.mu.RLock()
	defer t.mu.RUnlock()
	_ = t.walkID(t.rootID, nil, func(*Node, Predicate) { total++ })
	return total
}

// NumLeaves returns the number of leaf pages, counted by a full traversal.
// On a store I/O failure the count so far is returned.
func (t *Tree) NumLeaves() int {
	total := 0
	t.mu.RLock()
	defer t.mu.RUnlock()
	_ = t.walkID(t.rootID, nil, func(n *Node, _ Predicate) {
		if n.IsLeaf() {
			total++
		}
	})
	return total
}

// Walk visits every node in depth-first pre-order, pinning each page for
// the duration of its visit. It is intended for analysis tooling; fn must
// not mutate the tree. The error is the first store failure, if any.
func (t *Tree) Walk(fn func(n *Node, parentPred Predicate)) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.walkID(t.rootID, nil, fn)
}

// walkID is the pin-based pre-order recursion beneath Walk and the stats
// accessors. The caller holds the tree lock. A node stays pinned while its
// subtree is visited, so at most height pages are pinned at once.
func (t *Tree) walkID(id page.PageID, pp Predicate, fn func(n *Node, parentPred Predicate)) error {
	n, err := t.store.Pin(id)
	if err != nil {
		return err
	}
	defer t.store.Unpin(n)
	fn(n, pp)
	if n.IsLeaf() {
		return nil
	}
	for i, c := range n.children {
		if err := t.walkID(c, n.preds[i], fn); err != nil {
			return err
		}
	}
	return nil
}
