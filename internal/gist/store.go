package gist

import (
	"errors"
	"fmt"

	"blobindex/internal/page"
)

// ErrReadOnly is returned by Insert, Delete and TightenPredicates on a tree
// assembled by NewFromStore: only a tree held in a MemStore is writable.
var ErrReadOnly = errors.New("gist: tree is read-only")

// PageID aliases page.PageID; the storage layer below a tree addresses
// nodes exclusively by it.
type PageID = page.PageID

// NodeStore is the read side of the storage layer beneath a Tree: nodes are
// addressed by page.PageID and materialized on demand. The tree and the
// search code in blobindex/internal/nn never follow raw pointers between
// nodes — every traversal edge is a Pin/Unpin pair against the store, which
// is what lets one tree implementation run both fully in memory (MemStore)
// and demand-paged from disk through a pinning buffer pool
// (blobindex/internal/pagefile Store).
//
// Pin rules:
//
//   - Every successful Pin is balanced by exactly one Unpin. A pinned node
//     stays resident; an unpinned node may be evicted and re-decoded, so a
//     *Node obtained from Pin must not be used after its Unpin.
//   - Only the memory store is writable. Insert, Delete and
//     TightenPredicates mutate a tree built in memory (New, BulkLoad,
//     FromRaw) through its MemStore directly; a tree assembled over any
//     other store by NewFromStore is read-only and they return ErrReadOnly.
//
// Read-only data handed out of a node (LeafKey views, FlatKeys blocks) stays
// valid after Unpin and even after eviction: eviction only drops the store's
// reference, and the underlying arrays are never recycled.
type NodeStore interface {
	// Pin materializes the node for id and holds it resident until Unpin.
	Pin(id page.PageID) (*Node, error)
	// Unpin releases one Pin.
	Unpin(n *Node)
}

// StatsProvider is implemented by stores backed by a real buffer pool; the
// amdb analysis and the pagedio experiment read traffic counters through it.
type StatsProvider interface {
	// PoolStats returns a snapshot of the store's buffer-pool counters.
	PoolStats() page.PoolStats
}

// MemStore keeps every node in memory, indexed by page id — the storage
// layer of freshly built trees and the only one a tree mutates. Pin is a
// bounds-checked slice index and Unpin is a no-op, so the query hot path over
// a MemStore allocates nothing and costs one interface call per visited node.
// Every node is always the resident copy, so the write paths keep node
// pointers across a mutation without pinning them.
//
// MemStore itself is not synchronized; it relies on the Tree's RWMutex
// discipline (concurrent readers never mutate, writers are exclusive).
type MemStore struct {
	dim   int
	nodes []*Node // index == page id; freed slots are nil
}

// NewMemStore returns an empty in-memory store for dim-dimensional nodes.
func NewMemStore(dim int) *MemStore {
	return &MemStore{dim: dim}
}

// Pin returns the node for id. It never blocks and never does I/O.
func (m *MemStore) Pin(id page.PageID) (*Node, error) {
	if id < 0 || int(id) >= len(m.nodes) || m.nodes[id] == nil {
		return nil, fmt.Errorf("gist: MemStore has no page %d", id)
	}
	return m.nodes[id], nil
}

// Unpin is a no-op: memory-resident nodes are never evicted.
func (m *MemStore) Unpin(*Node) {}

// alloc appends a fresh node; ids are assigned densely from 0 and never
// reused, so traces and saved layouts keep stable page ids.
func (m *MemStore) alloc(level int) *Node {
	n := &Node{id: page.PageID(len(m.nodes)), level: level, dim: m.dim}
	m.nodes = append(m.nodes, n)
	return n
}

// free nils the slot. The id is retired, not reused.
func (m *MemStore) free(id page.PageID) {
	if id >= 0 && int(id) < len(m.nodes) {
		m.nodes[id] = nil
	}
}

// NewLeafNode builds a leaf node for a store implementation that decodes
// pages itself (e.g. the file-backed store). flatKeys is the dim-strided key
// block; the node takes ownership of both slices.
func NewLeafNode(id page.PageID, dim int, flatKeys []float64, rids []int64) *Node {
	return &Node{id: id, level: 0, dim: dim, flatKeys: flatKeys, rids: rids}
}

// NewInnerNode builds an internal node from decoded predicates and child
// page ids; the node takes ownership of both slices.
func NewInnerNode(id page.PageID, level, dim int, preds []Predicate, children []page.PageID) *Node {
	return &Node{id: id, level: level, dim: dim, preds: preds, children: children}
}

// NewFromStore assembles a read-only Tree over an existing node store — the
// open path for persisted indexes, where the store demand-pages nodes and
// the tree must not be materialized eagerly. Insert, Delete and
// TightenPredicates on it return ErrReadOnly. No integrity check runs (it
// would fault in the whole tree); callers wanting one run CheckIntegrity
// explicitly.
func NewFromStore(ext Extension, cfg Config, store NodeStore, rootID page.PageID, height, size int) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("gist: nil store")
	}
	if height < 1 {
		return nil, fmt.Errorf("gist: height %d < 1", height)
	}
	return &Tree{
		ext:      ext,
		dim:      cfg.Dim,
		pageSize: cfg.PageSize,
		leafCap:  page.LeafCapacity(cfg.PageSize, cfg.Dim),
		innerCap: page.Capacity(cfg.PageSize, ext.BPWords(cfg.Dim)),
		minFill:  cfg.MinFill,
		store:    store,
		rootID:   rootID,
		height:   height,
		size:     size,
	}, nil
}
