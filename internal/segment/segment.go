// Package segment turns the single-tree core into a stack of searchable
// segments — the read side of the LSM-of-trees that backs online ingest.
//
// A Segment is one immutable-or-mutable unit of index: a memory segment
// (Mem) wraps a MemStore-backed tree that the active write path mutates in
// place, and a file segment (File) wraps a demand-paged pagefile tree that
// is never mutated after its bulk load. Both expose the same read surface
// (the underlying *gist.Tree plus shape stats), so the k-NN and range
// engines in internal/nn run over either unchanged.
//
// A Stack is an ordered set of live segments (oldest first) plus the RID
// tombstones that mask deletes against sealed segments. A k-NN query is one
// search over all sealed segments (nn.SearchRootsCtxInto) whose answer seeds
// a search of the active memory segment; a range query searches each segment.
// Both mask tombstoned RIDs and order by (Dist2, RID). A stack holding
// exactly one segment and no tombstones takes a fast path that delegates
// straight to the single-tree engine: byte-identical, allocation-identical
// to the pre-segmentation read path, which is what pins the golden search
// digest across the refactor.
//
// Tombstone semantics: a tombstone (rid, watermark) masks rid in every
// segment whose generation is below the watermark. Segments created at or
// after the watermark postdate the delete — a re-inserted rid lands in a
// younger segment and is served normally. Compactions that merely change a
// segment's representation (memory → pagefile) keep its generation, so
// existing tombstones keep masking it; only a full compaction, which
// applies the masks while harvesting points, clears them.
//
// Locking: the Stack's RWMutex is held in read mode for an entire search
// and in write mode for segment swaps (seal, compact), so a swap never
// pulls a segment out from under a running traversal — once Replace
// returns, no searcher references the dropped segments and the caller can
// close them.
package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/pagefile"
)

// Stats is one segment's shape, for /v1/stats and capacity accounting.
type Stats struct {
	Gen       uint64
	Len       int
	Pages     int
	SizeBytes int64
	Mutable   bool
}

// Segment is one searchable unit of a segmented index.
type Segment interface {
	// Tree returns the underlying searchable tree; the nn engines traverse
	// it directly under its own read lock.
	Tree() *gist.Tree
	// Gen is the segment's creation generation, the key tombstone
	// watermarks compare against.
	Gen() uint64
	// Len is the number of stored points (before tombstone masking).
	Len() int
	// Stats describes the segment's shape.
	Stats() Stats
	// Close releases any backing resources. Idempotent.
	Close() error
}

// Mem is a mutable memory segment: the active target of an index's writes
// until it is sealed.
type Mem struct {
	tree   *gist.Tree
	gen    uint64
	sealed atomic.Bool
}

// NewMem creates an empty memory segment.
func NewMem(ext gist.Extension, cfg gist.Config, gen uint64) (*Mem, error) {
	tree, err := gist.New(ext, cfg)
	if err != nil {
		return nil, err
	}
	return &Mem{tree: tree, gen: gen}, nil
}

// WrapMem wraps an existing in-memory tree (a bulk load, or a
// pagefile.Load result) as a memory segment.
func WrapMem(tree *gist.Tree, gen uint64) *Mem { return &Mem{tree: tree, gen: gen} }

// Tree returns the segment's tree.
func (m *Mem) Tree() *gist.Tree { return m.tree }

// Gen returns the segment's generation.
func (m *Mem) Gen() uint64 { return m.gen }

// Len returns the number of stored points.
func (m *Mem) Len() int { return m.tree.Len() }

// Stats describes the segment's shape. A memory segment's size is its
// page-equivalent footprint, the same accounting a save would produce.
func (m *Mem) Stats() Stats {
	pages := m.tree.NumPages()
	return Stats{
		Gen:       m.gen,
		Len:       m.tree.Len(),
		Pages:     pages,
		SizeBytes: int64(pages+1) * int64(m.tree.PageSize()),
		Mutable:   !m.sealed.Load(),
	}
}

// Insert adds one point. A sealed segment rejects writes — the compactor
// owns it now.
func (m *Mem) Insert(p gist.Point) error {
	if m.sealed.Load() {
		return fmt.Errorf("segment: gen %d is sealed", m.gen)
	}
	return m.tree.Insert(p)
}

// Delete removes (key, rid), reporting whether it was present. Sealed
// segments reject deletes; the caller records a tombstone instead.
func (m *Mem) Delete(key geom.Vector, rid int64) (bool, error) {
	if m.sealed.Load() {
		return false, fmt.Errorf("segment: gen %d is sealed", m.gen)
	}
	return m.tree.Delete(key, rid)
}

// Seal makes the segment immutable: subsequent Insert/Delete calls fail.
// Reads are unaffected.
func (m *Mem) Seal() { m.sealed.Store(true) }

// Close is a no-op: memory segments hold no external resources.
func (m *Mem) Close() error { return nil }

// File is an immutable pagefile-backed segment, served through a pinning
// buffer pool.
type File struct {
	tree  *gist.Tree
	store *pagefile.Store
	gen   uint64
	path  string
	bytes int64
}

// OpenFile opens the segment pagefile at path demand-paged with the given
// buffer pool budget.
func OpenFile(path string, opts am.Options, poolPages int, gen uint64) (*File, error) {
	tree, store, err := pagefile.OpenPaged(path, opts, poolPages)
	if err != nil {
		return nil, err
	}
	var bytes int64
	if fi, err := os.Stat(path); err == nil {
		bytes = fi.Size()
	}
	return &File{tree: tree, store: store, gen: gen, path: path, bytes: bytes}, nil
}

// WrapFile wraps a paged tree its caller opened with pagefile.OpenPaged as
// a file segment; OpenFile is the one-call form.
func WrapFile(tree *gist.Tree, store *pagefile.Store, path string, gen uint64) *File {
	var bytes int64
	if fi, err := os.Stat(path); err == nil {
		bytes = fi.Size()
	}
	return &File{tree: tree, store: store, gen: gen, path: path, bytes: bytes}
}

// Tree returns the segment's tree.
func (f *File) Tree() *gist.Tree { return f.tree }

// Gen returns the segment's generation.
func (f *File) Gen() uint64 { return f.gen }

// Len returns the number of stored points.
func (f *File) Len() int { return f.tree.Len() }

// Path returns the backing pagefile's path.
func (f *File) Path() string { return f.path }

// Store returns the segment's buffer pool, for stats aggregation.
func (f *File) Store() *pagefile.Store { return f.store }

// Stats describes the segment's shape.
func (f *File) Stats() Stats {
	return Stats{
		Gen:       f.gen,
		Len:       f.tree.Len(),
		Pages:     f.tree.NumPages(),
		SizeBytes: f.bytes,
		Mutable:   false,
	}
}

// Close releases the backing file and pool. Idempotent.
func (f *File) Close() error {
	if f.store == nil {
		return nil
	}
	return f.store.Close()
}

// Stack is an ordered set of live segments plus the tombstones masking
// deleted RIDs in sealed segments. Any number of searches run concurrently
// with each other; swaps and tombstone writes serialize against them.
type Stack struct {
	mu     sync.RWMutex
	segs   []Segment // oldest first; a mutable Mem, if any, is last
	roots  []nn.Root // segs as the k-NN engine's roots, rebuilt by setSegs
	tombs  map[int64]uint64
	closed bool // set by Close: later searches fail with ErrClosed
}

// ErrClosed is returned by a search that finds the stack closed.
var ErrClosed = errors.New("segment: stack closed")

// NewStack builds a stack over segments (oldest first) with the given
// tombstones (nil for none). The tombstone map is owned by the stack
// afterwards.
func NewStack(segs []Segment, tombs map[int64]uint64) *Stack {
	if tombs == nil {
		tombs = make(map[int64]uint64)
	}
	s := &Stack{tombs: tombs}
	s.setSegs(segs)
	return s
}

// setSegs installs segs and their roots. Callers hold mu for writing.
func (s *Stack) setSegs(segs []Segment) {
	s.segs, s.roots = segs, make([]nn.Root, len(segs))
	for i, seg := range segs {
		s.roots[i] = nn.Root{Tree: seg.Tree(), Gen: seg.Gen()}
	}
}

// resultLess is the (Dist2, RID) total order the merged results are sorted
// by — identical to the per-tree engines' tie-break, so a single-segment
// stack and a multi-segment stack over the same points produce identical
// result sequences.
func resultLess(a, b nn.Result) int {
	switch {
	case a.Dist2 < b.Dist2:
		return -1
	case a.Dist2 > b.Dist2:
		return 1
	case a.RID < b.RID:
		return -1
	case a.RID > b.RID:
		return 1
	}
	return 0
}

// SearchKNN appends the k nearest unmasked neighbors across all segments
// to dst, nearest first. The single-segment, no-tombstone fast path
// delegates to the one-tree engine unchanged (byte- and
// allocation-identical to the pre-segmentation path).
func (s *Stack) SearchKNN(ctx context.Context, q geom.Vector, k int, dst []nn.Result) ([]nn.Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, ErrClosed
	}
	if len(s.segs) == 1 && len(s.tombs) == 0 {
		return nn.SearchCtxInto(ctx, s.segs[0].Tree(), q, k, nil, dst)
	}
	// The sealed segments are one search. The active Mem is searched apart,
	// under its own read lock, with the sealed answer as its starting k-bound:
	// Insert waits on that lock, and holding it for the whole stacked search
	// made ingest-write's p50 ×1.85.
	sealed, active := s.roots, s.roots[:0]
	if n := len(s.segs); n > 0 {
		if m, ok := s.segs[n-1].(*Mem); ok && !m.sealed.Load() {
			sealed, active = s.roots[:n-1], s.roots[n-1:]
		}
	}
	base := len(dst)
	dst, err := nn.SearchRootsCtxInto(ctx, sealed, s.tombs, nil, q, k, nil, dst)
	if err != nil || len(active) == 0 {
		return dst, err
	}
	return nn.SearchRootsCtxInto(ctx, active, nil, dst[base:], q, k, nil, dst[:base])
}

// SearchRange appends every unmasked point within radius2 (squared) across
// all segments to dst, nearest first.
func (s *Stack) SearchRange(ctx context.Context, q geom.Vector, radius2 float64, dst []nn.Result) ([]nn.Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, ErrClosed
	}
	if len(s.segs) == 1 && len(s.tombs) == 0 {
		return nn.RangeCtxInto(ctx, s.segs[0].Tree(), q, radius2, nil, dst)
	}
	base0 := len(dst)
	for _, seg := range s.segs {
		base := len(dst)
		var err error
		dst, err = nn.RangeCtxInto(ctx, seg.Tree(), q, radius2, nil, dst)
		if err != nil {
			return dst[:base0], err
		}
		dst = s.maskLocked(dst, base, seg.Gen())
	}
	slices.SortFunc(dst[base0:], resultLess)
	return dst, nil
}

// maskLocked compacts dst[base:] in place, dropping results whose RID is
// tombstoned with a watermark above the producing segment's generation.
func (s *Stack) maskLocked(dst []nn.Result, base int, gen uint64) []nn.Result {
	if len(s.tombs) == 0 {
		return dst
	}
	out := dst[:base]
	for _, r := range dst[base:] {
		if w, ok := s.tombs[r.RID]; ok && gen < w {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Contains reports whether (key, rid) is stored unmasked in any segment
// whose generation is below the given bound — the presence check behind
// turning a delete into a tombstone (bound = the active generation skips
// the active memory segment, which handles its own deletes).
func (s *Stack) Contains(key geom.Vector, rid int64, below uint64) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, tombed := s.tombs[rid]
	for _, seg := range s.segs {
		if seg.Gen() >= below {
			continue
		}
		if tombed && seg.Gen() < w {
			continue
		}
		ok, err := seg.Tree().Lookup(key, rid)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// AddTombstone masks rid in every segment with generation below watermark.
// The caller must have verified presence (Contains), so Len stays exact.
func (s *Stack) AddTombstone(rid int64, watermark uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tombs[rid] = watermark
}

// Tombstones returns a copy of the tombstone set, for manifest commits.
func (s *Stack) Tombstones() map[int64]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int64]uint64, len(s.tombs))
	for rid, w := range s.tombs {
		out[rid] = w
	}
	return out
}

// NumTombstones returns the live tombstone count.
func (s *Stack) NumTombstones() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tombs)
}

// Len returns the number of live (unmasked) points. Tombstones are only
// recorded after a verified presence and cleared when a full compaction
// applies them, so the subtraction is exact.
func (s *Stack) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, seg := range s.segs {
		n += seg.Len()
	}
	return n - len(s.tombs)
}

// Closed reports whether Close has run. It is sticky: a Len of 0 followed by
// Closed() == true means the stack was emptied by Close.
func (s *Stack) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Segments returns a snapshot of the live segments, oldest first. The
// segments themselves may be swapped out after the call; holders must not
// close them.
func (s *Stack) Segments() []Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.segs)
}

// Only returns the stack's sole segment when it holds exactly one and no
// tombstones — the shape the single-tree operations (Analyze, WriteSVG, a
// Save of the tree as it stands) require.
func (s *Stack) Only() (Segment, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.segs) == 1 && len(s.tombs) == 0 {
		return s.segs[0], true
	}
	return nil, false
}

// SegmentStats returns per-segment shape stats, oldest first.
func (s *Stack) SegmentStats() []Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Stats, len(s.segs))
	for i, seg := range s.segs {
		out[i] = seg.Stats()
	}
	return out
}

// Append adds a segment at the top of the stack (the youngest position).
func (s *Stack) Append(seg Segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setSegs(append(s.segs, seg))
}

// Replace atomically swaps the segments identity-listed in drop for add
// (inserted at the first dropped segment's position; appended when drop is
// empty), optionally clearing the tombstone set in the same critical
// section — the in-memory half of a compaction commit. It returns after
// every concurrent search has stopped referencing the dropped segments, so
// the caller can close them.
func (s *Stack) Replace(drop []Segment, add Segment, clearTombs bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.segs[:0:0]
	added := false
	for _, seg := range s.segs {
		if slices.Contains(drop, seg) {
			if !added && add != nil {
				out = append(out, add)
				added = true
			}
			continue
		}
		out = append(out, seg)
	}
	if !added && add != nil {
		out = append(out, add)
	}
	s.setSegs(out)
	if clearTombs {
		s.tombs = make(map[int64]uint64)
	}
}

// Close closes every segment, keeping the first error.
func (s *Stack) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.segs {
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.setSegs(nil)
	s.closed = true
	return first
}

// CollectPoints appends every point of seg that survives the tombstone
// masks to dst (keys cloned, so the result outlives the segment) — the
// harvest step of a compaction. Pass nil tombs to harvest everything, the
// right call when the output segment keeps the input's generation and the
// masks must keep applying to it.
func CollectPoints(seg Segment, tombs map[int64]uint64, dst []gist.Point) ([]gist.Point, error) {
	gen := seg.Gen()
	err := seg.Tree().Walk(func(n *gist.Node, _ gist.Predicate) {
		if !n.IsLeaf() {
			return
		}
		for i := 0; i < n.NumEntries(); i++ {
			rid := n.LeafRID(i)
			if w, ok := tombs[rid]; ok && gen < w {
				continue
			}
			dst = append(dst, gist.Point{Key: n.LeafKey(i).Clone(), RID: rid})
		}
	})
	if err != nil {
		return dst, err
	}
	return dst, nil
}
