// Package blobindex is a Go reproduction of "Creating a Customized Access
// Method for Blobworld" (Thomas, Carson, Hellerstein; ICDE 2000): a
// Generalized Search Tree (GiST) with six multidimensional access methods —
// the traditional R-tree, SS-tree and SR-tree, and the paper's custom aMAP,
// JB ("jagged bites") and XJB predicates that remove empty corner volume
// from bounding rectangles to speed nearest-neighbor search — together with
// STR bulk loading, an amdb-style analysis framework, and a synthetic
// Blobworld image-retrieval substrate for end-to-end experiments.
//
// The package is a facade: Build an Index over points, run exact
// nearest-neighbor and range queries, and Analyze workloads with the
// paper's loss metrics. The experiment harness reproducing every table and
// figure of the paper lives in cmd/blobbench; see DESIGN.md and
// EXPERIMENTS.md.
//
// An Index is safe for concurrent readers with a single writer: any number
// of goroutines may search (SearchKNN, SearchRange, SearchIter, Analyze,
// BatchSearchKNN) while at most one goroutine mutates (Insert, Delete,
// Tighten). Build parallelizes the bulk load across Options.Parallelism
// workers, BatchSearchKNN replays whole workloads across cores, and the
// *Ctx method variants honor context cancellation mid-traversal; see
// DESIGN.md §6 for the full concurrency model.
//
//	idx, err := blobindex.Build(points, blobindex.Options{Method: blobindex.XJB, Dim: 5})
//	...
//	neighbors := idx.SearchKNN(query, 200)
package blobindex

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"iter"
	"math"
	"math/rand"

	"blobindex/internal/am"
	"blobindex/internal/blobworld"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/pagefile"
	"blobindex/internal/segment"
	"blobindex/internal/str"
	"blobindex/internal/viz"
	"blobindex/internal/wal"
)

// Method names an access method (the bounding predicate family specializing
// the GiST).
type Method string

// The implemented access methods.
const (
	// RTree is Guttman's R-tree: minimum bounding rectangles.
	RTree Method = "rtree"
	// SSTree is the SS-tree: centroid spheres.
	SSTree Method = "sstree"
	// SRTree is the SR-tree: rectangle ∩ sphere.
	SRTree Method = "srtree"
	// AMAP is the paper's aMAP: two rectangles of approximately minimal
	// total volume (§5.1).
	AMAP Method = "amap"
	// JB is the paper's "jagged bites" predicate: the MBR plus the largest
	// empty bite at each of its 2^D corners (§5.2).
	JB Method = "jb"
	// XJB keeps only the X largest bites (§5.3); the paper's preferred
	// access method for Blobworld.
	XJB Method = "xjb"
)

// Methods lists every access method.
func Methods() []Method {
	return []Method{RTree, SSTree, SRTree, AMAP, JB, XJB}
}

// Point is one indexed datum.
type Point struct {
	// Key is the point's coordinates; its length must equal Options.Dim.
	Key []float64
	// RID is the caller's record identifier (e.g. a blob id); the index
	// returns it from searches. RIDs must be unique.
	RID int64
}

// Neighbor is one search result.
type Neighbor struct {
	RID  int64
	Key  []float64
	Dist float64 // Euclidean distance to the query
	// Dist2 is the squared distance exactly as the traversal computed it —
	// the (Dist2, RID) key every merge in the stack orders by. Carrying the
	// pre-sqrt bits lets downstream tiers (segment stacks, the cluster
	// router's scatter-gather merge) re-merge result lists bit-identically
	// instead of re-deriving the key from the rounded Dist.
	Dist2 float64
}

// Options configures an Index.
type Options struct {
	// Method selects the access method. Default XJB.
	Method Method
	// Dim is the key dimensionality. Required.
	Dim int
	// PageSize is the page size in bytes; node fanout is derived from it
	// and the predicate size. Default 8192 (the paper's).
	PageSize int
	// FillFactor is the bulk-load fill fraction in (0, 1]. Default 1.0
	// (STR packs pages full).
	FillFactor float64
	// XJBBites is XJB's X. Default 10 (the paper's choice).
	XJBBites int
	// AMAPSamples is the number of candidate partitions aMAP examines.
	// Default 1024 (the paper's choice).
	AMAPSamples int
	// BiteRestarts, when positive, builds JB/XJB bites with the
	// randomized-restart construction (the improved algorithm of paper
	// footnote 7). Default 0: the paper's Figure-13 heuristic.
	BiteRestarts int
	// Seed drives the deterministic randomness of aMAP and the restart
	// construction.
	Seed int64
	// Parallelism bounds the worker goroutines Build uses for the STR sort
	// and the bottom-up predicate construction, and is the default worker
	// count for BatchSearchKNN. 0 means GOMAXPROCS; 1 runs serially. The
	// built tree is identical for every value.
	Parallelism int
}

// Validate reports whether the options are well-formed. Zero values stand
// for defaults and are valid (except Dim, which is required); every
// violation is wrapped around ErrInvalidOptions for errors.Is matching.
func (o Options) Validate() error {
	switch o.Method {
	case "", RTree, SSTree, SRTree, AMAP, JB, XJB:
	default:
		return fmt.Errorf("%w: unknown method %q", ErrInvalidOptions, o.Method)
	}
	if o.Dim <= 0 {
		return fmt.Errorf("%w: Dim must be positive, got %d", ErrInvalidOptions, o.Dim)
	}
	if o.PageSize < 0 {
		return fmt.Errorf("%w: PageSize must not be negative, got %d", ErrInvalidOptions, o.PageSize)
	}
	if o.FillFactor < 0 || o.FillFactor > 1 {
		return fmt.Errorf("%w: FillFactor %v outside (0, 1]", ErrInvalidOptions, o.FillFactor)
	}
	if o.XJBBites < 0 {
		return fmt.Errorf("%w: XJBBites must not be negative, got %d", ErrInvalidOptions, o.XJBBites)
	}
	if o.AMAPSamples < 0 {
		return fmt.Errorf("%w: AMAPSamples must not be negative, got %d", ErrInvalidOptions, o.AMAPSamples)
	}
	if o.BiteRestarts < 0 {
		return fmt.Errorf("%w: BiteRestarts must not be negative, got %d", ErrInvalidOptions, o.BiteRestarts)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism must not be negative, got %d", ErrInvalidOptions, o.Parallelism)
	}
	return nil
}

func (o *Options) fillDefaults() error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Method == "" {
		o.Method = XJB
	}
	if o.PageSize == 0 {
		o.PageSize = 8192
	}
	if o.FillFactor == 0 {
		o.FillFactor = 1.0
	}
	if o.XJBBites == 0 {
		o.XJBBites = 10
	}
	if o.AMAPSamples == 0 {
		o.AMAPSamples = 1024
	}
	return nil
}

func (o Options) extension() (gist.Extension, error) {
	switch o.Method {
	case JB:
		if o.BiteRestarts > 0 {
			return am.JBWithRestarts(o.BiteRestarts, o.Seed), nil
		}
	case XJB:
		if o.BiteRestarts > 0 {
			return am.XJBWithRestarts(o.XJBBites, o.BiteRestarts, o.Seed), nil
		}
	}
	return am.New(am.Kind(o.Method), am.Options{
		AMAPSamples: o.AMAPSamples,
		AMAPSeed:    o.Seed,
		XJBX:        o.XJBBites,
	})
}

// treeConfig is the per-tree configuration every segment shares.
func (o Options) treeConfig() gist.Config {
	return gist.Config{Dim: o.Dim, PageSize: o.PageSize}
}

// Index is a searchable access method over a point set.
//
// Every Index is a stack of segments (internal/segment) with one write
// path (online.go): writes apply to the active memory segment at the top
// of the stack, and a delete that misses it tombstones the segments below.
// New and Build hold one memory segment. Open holds one immutable file
// segment and stacks a memory segment over it at the first insert.
// CreateOnline and OpenOnline add a write-ahead log, and background
// compaction seals the memory segment into immutable pagefile segments.
// Queries merge across the segments; a one-segment stack takes a fast path
// identical to the single-tree code. See DESIGN.md §13.
type Index struct {
	stack *segment.Stack
	opts  Options
	// side is non-nil once AttachRefine has opened a full-feature sidecar;
	// it serves the refine stage of Search.
	side *pagefile.SideStore
	// qfb is the reduced-space lower bound of the refine distance for the
	// sidecar's projection, built by AttachRefine.
	qfb *blobworld.QFBound
	// wr is the write side (online.go): the active segment and, for a
	// durable index, the write-ahead log and its maintenance.
	wr *writer
}

// New returns an empty index that accepts Insert.
func New(opts Options) (*Index, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ext, err := opts.extension()
	if err != nil {
		return nil, err
	}
	m, err := segment.NewMem(ext, opts.treeConfig(), 0)
	if err != nil {
		return nil, err
	}
	return memIndex(m, ext, opts), nil
}

// memIndex makes one memory segment an index with no WAL, the segment
// being the active one: writes apply to it in place.
func memIndex(m *segment.Mem, ext gist.Extension, opts Options) *Index {
	return &Index{
		stack: segment.NewStack([]segment.Segment{m}, nil),
		opts:  opts,
		wr:    &writer{ext: ext, active: m},
	}
}

// Build bulk-loads an index: the points are arranged into STR tile order
// (Leutenegger et al.) and packed bottom-up, the loading strategy the paper
// uses for its static Blobworld data set (§3.2). The sort and the
// bottom-up predicate construction fan out across Options.Parallelism
// workers; the resulting tree is byte-for-byte identical at every worker
// count. The input slice is not modified.
func Build(points []Point, opts Options) (*Index, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ext, err := opts.extension()
	if err != nil {
		return nil, err
	}
	pts := make([]gist.Point, len(points))
	for i, p := range points {
		if len(p.Key) != opts.Dim {
			return nil, fmt.Errorf("%w: point %d has dimension %d, want %d",
				ErrDimMismatch, i, len(p.Key), opts.Dim)
		}
		pts[i] = gist.Point{Key: geom.Vector(p.Key).Clone(), RID: p.RID}
	}
	tree, err := bulkLoad(ext, opts, pts)
	if err != nil {
		return nil, err
	}
	return memIndex(segment.WrapMem(tree, 0), ext, opts), nil
}

// bulkLoad STR-orders pts and packs them bottom-up with the index's
// options. Build and every compaction share it, so a compacted segment has
// bulk-load-quality predicates.
func bulkLoad(ext gist.Extension, opts Options, pts []gist.Point) (*gist.Tree, error) {
	cfg := opts.treeConfig()
	probe, err := gist.New(ext, cfg)
	if err != nil {
		return nil, err
	}
	str.OrderParallel(pts, probe.LeafCapacity(), opts.Parallelism)
	return gist.BulkLoadParallel(ext, cfg, pts, opts.FillFactor, opts.Parallelism)
}

// Insert adds one point to the active memory segment. Insertion maintains
// predicates conservatively; for JB/XJB indexes call Tighten afterwards to
// restore bulk-load-quality corner bites (the paper lists insertion support
// for JB/XJB as future work, §8).
//
// On an online index (CreateOnline/OpenOnline) the write is appended to the
// write-ahead log and fsynced before it is applied — when Insert returns
// nil the point survives a crash. Any other index holds its writes in
// memory only (call Save to persist). Insert fails after Close.
func (ix *Index) Insert(p Point) error {
	if len(p.Key) != ix.opts.Dim {
		return fmt.Errorf("%w: key dimension %d, index dimension %d",
			ErrDimMismatch, len(p.Key), ix.opts.Dim)
	}
	w := ix.wr
	if err := w.lock(); err != nil {
		return err
	}
	active, err := ix.activeLocked()
	if err != nil {
		w.wmu.Unlock()
		return err
	}
	if w.log != nil {
		if err := w.log.Append(wal.Record{Op: wal.OpInsert, RID: p.RID, Key: p.Key}); err != nil {
			w.wmu.Unlock()
			return err
		}
	}
	err = active.Insert(gist.Point{Key: geom.Vector(p.Key).Clone(), RID: p.RID})
	n := active.Len()
	w.wmu.Unlock()
	if err != nil {
		return err
	}
	w.appends.Add(1)
	if w.sealThreshold > 0 && n >= w.sealThreshold {
		w.kickMaintenance(ix)
	}
	return nil
}

// Delete removes the (key, rid) pair, reporting whether it was present.
// Presence decides the answer before anything is written. A pair in the
// active memory segment is removed from it; a pair in a segment below —
// sealed, or the file an index was opened from — is recorded as a
// tombstone that masks it out of query results until a full compaction
// applies it physically. On an online index the delete is WAL-logged like
// Insert. Delete fails after Close.
func (ix *Index) Delete(key []float64, rid int64) (bool, error) {
	if len(key) != ix.opts.Dim {
		return false, fmt.Errorf("%w: key dimension %d, index dimension %d",
			ErrDimMismatch, len(key), ix.opts.Dim)
	}
	w := ix.wr
	if err := w.lock(); err != nil {
		return false, err
	}
	defer w.wmu.Unlock()
	kv := geom.Vector(key)
	inMem := false
	if w.active != nil {
		var err error
		if inMem, err = w.active.Tree().Lookup(kv, rid); err != nil {
			return false, err
		}
	}
	below, err := ix.stack.Contains(kv, rid, w.activeGen)
	if err != nil {
		return false, err
	}
	if !inMem && !below {
		return false, nil
	}
	if w.log != nil {
		if err := w.log.Append(wal.Record{Op: wal.OpDelete, RID: rid, Key: key}); err != nil {
			return false, err
		}
	}
	if inMem {
		if _, err := w.active.Delete(kv, rid); err != nil {
			return false, err
		}
	}
	if below {
		ix.stack.AddTombstone(rid, w.activeGen)
	}
	w.appends.Add(1)
	return true, nil
}

// Tighten recomputes the active memory segment's bounding predicates from
// its stored points, restoring the predicate quality a fresh bulk load
// would produce. Every other segment was bulk-loaded, which already yields
// tight predicates, so Tighten is a no-op on an opened file that was never
// written. Tighten fails after Close.
func (ix *Index) Tighten() error {
	w := ix.wr
	if err := w.lock(); err != nil {
		return err
	}
	defer w.wmu.Unlock()
	if w.active == nil {
		return nil
	}
	return w.active.Tree().TightenPredicates()
}

// SearchKNN returns the exact k nearest neighbors of q, nearest first,
// using best-first search. It is a thin wrapper over Search that never
// cancels and maps every error to an empty result set; it is safe to call
// from any number of goroutines concurrently with a single writer. For
// failure modes, cancellation or the refine tier use Search directly.
func (ix *Index) SearchKNN(q []float64, k int) []Neighbor {
	resp, _ := ix.Search(context.Background(), SearchRequest{Query: q, K: k})
	return resp.Neighbors
}

// SearchRange returns all points within Euclidean distance radius of q,
// nearest first. It is a thin wrapper over Search; see SearchKNN for the
// concurrency contract.
func (ix *Index) SearchRange(q []float64, radius float64) []Neighbor {
	resp, _ := ix.Search(context.Background(), SearchRequest{Query: q, Radius: radius})
	return resp.Neighbors
}

// NeighborIterator streams neighbors of a query point in increasing
// distance order, reading index pages lazily — ask for results until
// satisfied, as the Blobworld front end does.
//
// Concurrent-modification contract: each Next/NextWithin call locks the
// index against writers for its own duration, so any number of iterators
// (and other searches) may run concurrently with a single Insert/Delete.
// But the iterator's frontier spans calls, and a write between calls can
// reorganize pages the frontier still references — so an iterator must be
// drained before the index is modified, and never shared between
// goroutines. Results already returned stay valid.
type NeighborIterator struct {
	// One incremental iterator per segment, merged by peeking the
	// per-segment heads and popping the global (Dist2, RID) minimum, with
	// tombstoned RIDs masked. A one-segment index merges one head.
	heads []segIterHead
	tombs map[int64]uint64
	err   error // first error that stopped a head
}

// segIterHead is one segment's incremental scan plus its buffered next
// result.
type segIterHead struct {
	it  *nn.Iterator
	gen uint64
	cur nn.Result
	ok  bool
}

// SearchIter starts an incremental nearest-neighbor scan from q. A query of
// the wrong dimensionality (including a zero-length one, which previously
// reached the tree) yields an exhausted iterator rather than a traversal
// over mismatched geometry. The scan merges the per-segment incremental
// scans in global distance order; the concurrent-modification contract
// extends to background compaction, so an online index's iterator must be
// drained before the next seal or compact.
func (ix *Index) SearchIter(q []float64) *NeighborIterator {
	if len(q) != ix.opts.Dim {
		return &NeighborIterator{}
	}
	segs := ix.stack.Segments()
	ni := &NeighborIterator{heads: make([]segIterHead, len(segs)), tombs: ix.stack.Tombstones()}
	for i, seg := range segs {
		ni.heads[i] = segIterHead{it: nn.NewIterator(context.TODO(), seg.Tree(), geom.Vector(q), nil), gen: seg.Gen()}
		ni.advance(i)
	}
	return ni
}

// advance refills head i's buffered result, skipping tombstone-masked RIDs.
func (ni *NeighborIterator) advance(i int) {
	h := &ni.heads[i]
	for {
		h.cur, h.ok = h.it.Next()
		if !h.ok {
			if err := h.it.Err(); err != nil && ni.err == nil {
				ni.err = err
			}
			return
		}
		if w, masked := ni.tombs[h.cur.RID]; masked && h.gen < w {
			continue
		}
		return
	}
}

// best returns the head holding the globally next-nearest result, or -1
// when the scan is exhausted or has failed.
func (ni *NeighborIterator) best() int {
	if ni.err != nil {
		return -1
	}
	best := -1
	for i := range ni.heads {
		h := &ni.heads[i]
		if !h.ok {
			continue
		}
		if best < 0 || h.cur.Dist2 < ni.heads[best].cur.Dist2 ||
			(h.cur.Dist2 == ni.heads[best].cur.Dist2 && h.cur.RID < ni.heads[best].cur.RID) {
			best = i
		}
	}
	return best
}

// pop consumes head i's result and returns it as a Neighbor.
func (ni *NeighborIterator) pop(i int) Neighbor {
	r := ni.heads[i].cur
	ni.advance(i)
	return Neighbor{RID: r.RID, Key: r.Key, Dist: math.Sqrt(r.Dist2), Dist2: r.Dist2}
}

// All returns a Go 1.23 range-over-func adapter streaming the remaining
// neighbors with their ordinal (0 for the nearest still unseen):
//
//	for i, nb := range ix.SearchIter(q).All() {
//		if nb.Dist > cutoff || i >= budget {
//			break
//		}
//		...
//	}
//
// Ranging consumes the iterator; breaking out keeps the remainder
// available to a later Next or All. The NeighborIterator's
// concurrent-modification contract applies unchanged.
func (ni *NeighborIterator) All() iter.Seq2[int, Neighbor] {
	return func(yield func(int, Neighbor) bool) {
		for i := 0; ; i++ {
			nb, ok := ni.Next()
			if !ok || !yield(i, nb) {
				return
			}
		}
	}
}

// Err returns the page-store or context error that stopped the scan, or
// nil while it runs and after it ends by exhausting the index. On a
// demand-paged index a page read can fail mid-scan (ErrStorageTransient,
// ErrStorageCorrupt); Next and NextWithin then report ok == false, exactly
// as at the end of the index, and only Err tells the two apart. The first
// failing segment stops the whole merged scan, since the global order can
// no longer be guaranteed.
func (ni *NeighborIterator) Err() error { return ni.err }

// Next returns the next-nearest neighbor, or ok == false when the index is
// exhausted or the scan failed (see Err).
func (ni *NeighborIterator) Next() (Neighbor, bool) {
	i := ni.best()
	if i < 0 {
		return Neighbor{}, false
	}
	return ni.pop(i), true
}

// NextWithin returns the next neighbor within the given Euclidean radius,
// or ok == false once the remaining neighbors are all farther (the scan can
// be resumed with a larger radius) or the scan failed (see Err).
func (ni *NeighborIterator) NextWithin(radius float64) (Neighbor, bool) {
	i := ni.best()
	if i < 0 || ni.heads[i].cur.Dist2 > radius*radius {
		return Neighbor{}, false
	}
	return ni.pop(i), true
}

// Save writes the index to a page-structured file: one fixed-size page per
// tree node, predicates serialized in the float-word layout of the paper's
// Table 3. Open reads it back.
//
// A stack of one segment and no tombstones saves that segment's tree, so a
// never-written index saves the bytes it was built or opened from. Any
// other stack saves one bulk load of its live points, tombstones applied —
// the tree CompactAll would produce — and is left as it was: Save never
// compacts. Save holds off writers and maintenance while it runs.
func (ix *Index) Save(path string) error {
	w := ix.wr
	w.mmu.Lock()
	defer w.mmu.Unlock()
	if err := w.lock(); err != nil {
		return err
	}
	defer w.wmu.Unlock()
	if seg, ok := ix.stack.Only(); ok {
		return pagefile.Save(path, seg.Tree())
	}
	tree, _, err := ix.mergeLive()
	if err != nil {
		return err
	}
	return pagefile.Save(path, tree)
}

// OpenOptions configures Open.
type OpenOptions struct {
	// PoolPages is the buffer pool capacity in pages. 0 means
	// DefaultPoolPages; with the default 8 KB pages that is an 8 MiB buffer.
	PoolPages int
}

// DefaultPoolPages is the buffer pool capacity Open uses when OpenOptions
// does not specify one.
const DefaultPoolPages = 1024

// Open opens an index saved by Save for demand-paged querying: nodes stay
// on disk and are read through a pinning LRU buffer pool as traversals
// reach them, so opening is O(1) in the index size and a query's I/O is
// proportional to the pages it actually visits. The access method,
// dimensionality, page size and XJB parameter are recovered from the file.
// Call Close when done; BufferStats exposes the pool's hit/miss/eviction
// counters.
//
// The file is one immutable segment and is never written: the first
// Insert stacks a memory segment over it, and a Delete of a point in the
// file records a tombstone. Call Save to persist such writes.
func Open(path string) (*Index, error) {
	return OpenWithOptions(path, OpenOptions{})
}

// OpenWithOptions is Open with an explicit buffer budget.
func OpenWithOptions(path string, oo OpenOptions) (*Index, error) {
	fs, err := segment.OpenFile(path, am.Options{}, poolOrDefault(oo.PoolPages), 0)
	if err != nil {
		return nil, err
	}
	tree := fs.Tree()
	opts := Options{
		Method:   Method(tree.Ext().Name()),
		Dim:      tree.Dim(),
		PageSize: tree.PageSize(),
	}
	if err := opts.fillDefaults(); err != nil {
		fs.Close()
		return nil, err
	}
	return &Index{
		stack: segment.NewStack([]segment.Segment{fs}, nil),
		opts:  opts,
		wr:    &writer{ext: tree.Ext(), activeGen: 1},
	}, nil
}

// Close releases the index's files — its segment pagefiles, its write-ahead
// log and its attached refine store — and returns the first error. An
// index with none has nothing to release. Close waits out running
// maintenance, and every later write fails. Close is idempotent: closing
// an already-closed index returns nil, so layered shutdown paths (a
// serving daemon's signal handler plus its deferred cleanup) can both close
// safely. Writes to an index with no WAL live in memory only — call Save
// before Close to persist them.
func (ix *Index) Close() error {
	w := ix.wr
	w.mmu.Lock()
	defer w.mmu.Unlock()
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var logErr, sideErr error
	if w.log != nil {
		logErr = w.log.Close()
	}
	stackErr := ix.stack.Close()
	if ix.side != nil {
		sideErr = ix.side.Close()
	}
	return cmp.Or(logErr, stackErr, sideErr)
}

// BufferStats is a snapshot of a demand-paged index's buffer pool traffic
// and the store's transient-read retry counters.
type BufferStats struct {
	Hits      int64 // page accesses served from the pool
	Misses    int64 // page accesses whose read happened on their behalf
	Evictions int64 // pages evicted to make room
	Retries   int64 // page re-reads after a transient failure
	GaveUp    int64 // page loads that exhausted the retry budget
	Resident  int   // pages currently held
	Capacity  int   // pool frame budget
}

// BufferStats returns the buffer pool counters of a demand-paged index,
// summed across every file-backed segment. ok is false for indexes with no
// file-backed segment (purely in-memory), which have no pool.
func (ix *Index) BufferStats() (s BufferStats, ok bool) {
	for _, seg := range ix.stack.Segments() {
		fs, isFile := seg.(*segment.File)
		if !isFile {
			continue
		}
		ps := fs.Store().PoolStats()
		s.Hits += ps.Hits
		s.Misses += ps.Misses
		s.Evictions += ps.Evictions
		s.Retries += ps.Retries
		s.GaveUp += ps.GaveUp
		s.Resident += ps.Resident
		s.Capacity += ps.Capacity
		ok = true
	}
	return s, ok
}

// WriteSVG renders the index's leaf geometry — bounding predicates
// (including JB/XJB corner bites, shaded) and data points — to w as an SVG,
// projected onto dimensions dimX and dimY. This is the Figure-10 view of
// the paper: the empty MBR corners that motivated the bite predicates are
// directly visible. maxLeaves caps the drawing (0 = all).
// It needs a one-segment index; see ErrMultiSegment.
func (ix *Index) WriteSVG(w io.Writer, dimX, dimY, maxLeaves int) error {
	seg, ok := ix.stack.Only()
	if !ok {
		return ErrMultiSegment
	}
	return viz.WriteSVG(w, seg.Tree(), viz.Options{DimX: dimX, DimY: dimY, MaxLeaves: maxLeaves})
}

// Options returns the index's effective options — the caller's Options with
// every default filled in (and, for opened indexes, the parameters recovered
// from the file). Serving layers use this to key result caches by access
// method and to validate query dimensionality without a round trip into the
// tree.
func (ix *Index) Options() Options { return ix.opts }

// Stats describes the index shape.
type Stats struct {
	Method        Method
	Len           int // stored points
	Height        int // tree levels
	Pages         int // total nodes
	Leaves        int // leaf nodes
	LeafCapacity  int // max entries per leaf
	InnerCapacity int // max entries per internal node
}

// Stats returns the index shape. For a multi-segment (online) index, Len,
// Pages and Leaves sum across segments (Len net of tombstones), Height is
// the tallest segment's, and the capacities are the common per-node
// capacities every segment shares.
func (ix *Index) Stats() Stats {
	s := Stats{Method: ix.opts.Method, Len: ix.stack.Len()}
	for _, seg := range ix.stack.Segments() {
		t := seg.Tree()
		s.Pages += t.NumPages()
		s.Leaves += t.NumLeaves()
		if h := t.Height(); h > s.Height {
			s.Height = h
		}
		s.LeafCapacity = t.LeafCapacity()
		s.InnerCapacity = t.InnerCapacity()
	}
	return s
}

// Len returns the number of stored points (net of delete tombstones).
func (ix *Index) Len() int { return ix.stack.Len() }

// SampleKeys returns up to n stored keys sampled uniformly at random
// (reservoir sampling over the leaves of every segment, skipping
// tombstoned points), e.g. to build a query workload for Analyze in the
// paper's style — query foci drawn from the data itself.
func (ix *Index) SampleKeys(n int, seed int64) [][]float64 {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make([][]float64, 0, n)
	seen := 0
	tombs := ix.stack.Tombstones()
	for _, seg := range ix.stack.Segments() {
		gen := seg.Gen()
		seg.Tree().Walk(func(node *gist.Node, _ gist.Predicate) {
			if !node.IsLeaf() {
				return
			}
			for i := 0; i < node.NumEntries(); i++ {
				if w, masked := tombs[node.LeafRID(i)]; masked && gen < w {
					continue
				}
				key := node.LeafKey(i).Clone()
				if len(sample) < n {
					sample = append(sample, key)
				} else if j := rng.Intn(seen + 1); j < n {
					sample[j] = key
				}
				seen++
			}
		})
	}
	return sample
}

// Check validates the index's structural invariants (predicates cover their
// subtrees, nodes respect capacity, RIDs partition) in every live segment.
// Intended for tests and debugging.
func (ix *Index) Check() error {
	for _, seg := range ix.stack.Segments() {
		if err := seg.Tree().CheckIntegrity(); err != nil {
			return fmt.Errorf("segment gen %d: %w", seg.Gen(), err)
		}
	}
	return nil
}
