package blobindex

// The write side every Index shares. An index is a stack of segments
// (internal/segment) and writes apply to the active memory segment at its
// top; a delete that misses that segment tombstones the segments below it.
// New and Build start with one memory segment, which is the active one.
// Open starts with one immutable file segment and stacks an empty memory
// segment over it at the first insert, so the file is never modified.
//
// The shapes differ only in durability. A durable index (CreateOnline,
// OpenOnline) lives in a directory governed by a manifest
// (internal/pagefile's manifest v1): immutable segment pagefiles, one or
// more write-ahead logs, and the RID tombstones masking deletes against
// sealed segments. Every Insert/Delete is appended (and fsynced) to the active WAL
// before it is applied, so a write that has been acknowledged survives
// kill -9; background maintenance seals the memory segment past a size
// threshold, bulk-loads it into an immutable pagefile segment with the same
// parallel STR loader Build uses, and commits the swap by atomically
// rewriting the manifest. See DESIGN.md §13 for the full protocol and the
// crash-window analysis.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/pagefile"
	"blobindex/internal/segment"
	"blobindex/internal/wal"
)

// poolOrDefault resolves a buffer pool budget, 0 meaning DefaultPoolPages.
func poolOrDefault(n int) int {
	if n <= 0 {
		return DefaultPoolPages
	}
	return n
}

// OnlineOptions configures the maintenance policy of an online index.
type OnlineOptions struct {
	// SealThreshold is the active-segment point count past which a
	// background seal + compaction starts. 0 disables automatic
	// maintenance; SealActive, CompactPending and CompactAll still work.
	SealThreshold int
	// PoolPages is the buffer pool budget, in pages, of each sealed
	// pagefile segment. 0 means DefaultPoolPages.
	PoolPages int
}

// frozenMem is a sealed memory segment awaiting compaction, together with
// the WAL generations whose records its points came from (normally one;
// several when a crash recovery folded multiple logs into one segment).
type frozenMem struct {
	seg     *segment.Mem
	walGens []uint64
}

// writer is the write side of an Index. dir is empty and log nil for an
// index with no WAL, which has no maintenance either.
type writer struct {
	ext           gist.Extension // builds every memory segment and bulk load
	dir           string
	poolPages     int
	sealThreshold int

	// wmu serializes writers (Insert/Delete/Tighten) and the in-memory
	// commit points of seal and compaction — the single-writer discipline
	// of the facade, made explicit because maintenance is itself a writer.
	wmu sync.Mutex
	// mmu serializes maintenance sequences (seal, compact, Save), which
	// span long stretches outside wmu.
	mmu sync.Mutex

	active        *segment.Mem // nil on an opened file until its first insert
	activeGen     uint64       // active's generation, or the one the first insert gives it
	activeWALGens []uint64     // gens whose data lives in the active mem (last = activeGen)
	log           *wal.Log
	frozen        []frozenMem // oldest first; compaction always takes the head
	closed        bool

	reorgHook atomic.Value // func(), called after every seal/compact swap

	seals           atomic.Uint64
	compactions     atomic.Uint64
	fullCompactions atomic.Uint64
	appends         atomic.Int64
	replayed        int64
	tornBytes       int64
}

// lock takes wmu, failing once the index is closed.
func (w *writer) lock() error {
	w.wmu.Lock()
	if w.closed {
		w.wmu.Unlock()
		return ErrClosed
	}
	return nil
}

// newMem creates an empty memory segment of generation gen.
func (w *writer) newMem(opts Options, gen uint64) (*segment.Mem, error) {
	return segment.NewMem(w.ext, opts.treeConfig(), gen)
}

// activeLocked returns the segment inserts apply to, stacking an empty
// memory segment over an opened file at its first insert. Callers hold wmu.
func (ix *Index) activeLocked() (*segment.Mem, error) {
	w := ix.wr
	if w.active == nil {
		m, err := w.newMem(ix.opts, w.activeGen)
		if err != nil {
			return nil, err
		}
		ix.stack.Append(m)
		w.active = m
	}
	return w.active, nil
}

// durable returns the writer of a WAL-backed index. Seal, compaction and
// ingest stats exist only there; every other index reports ErrNotOnline.
func (ix *Index) durable() (*writer, error) {
	if ix.wr.dir == "" {
		return nil, ErrNotOnline
	}
	return ix.wr, nil
}

// IngestStats is a snapshot of an online index's write path.
type IngestStats struct {
	Dir       string
	ActiveGen uint64
	ActiveLen int // points in the active (mutable) segment
	WALDepth  int64
	WALBytes  int64
	// PendingSegments counts sealed memory segments awaiting compaction;
	// FileSegments counts immutable pagefile segments.
	PendingSegments int
	FileSegments    int
	Tombstones      int
	Seals           uint64
	Compactions     uint64
	FullCompactions uint64
	Appends         int64
	// ReplayedRecords and TornBytes describe the last open: WAL records
	// replayed into the memory segment, and bytes of torn (unacknowledged)
	// WAL tail truncated away.
	ReplayedRecords int64
	TornBytes       int64
}

// SegmentInfo describes one live segment, for stats surfaces (/v1/stats).
type SegmentInfo struct {
	Gen       uint64
	Len       int // stored points, before tombstone masking
	Pages     int
	SizeBytes int64
	Mutable   bool
}

// SegmentInfos lists the live segments, oldest first. A never-written
// index from New, Build or Open reports its single segment.
func (ix *Index) SegmentInfos() []SegmentInfo {
	stats := ix.stack.SegmentStats()
	out := make([]SegmentInfo, len(stats))
	for i, s := range stats {
		out[i] = SegmentInfo(s)
	}
	return out
}

// IngestStats returns the online write-path snapshot; ok is false for an
// index with no WAL.
func (ix *Index) IngestStats() (IngestStats, bool) {
	w, err := ix.durable()
	if err != nil {
		return IngestStats{}, false
	}
	w.wmu.Lock()
	s := IngestStats{
		Dir:             w.dir,
		ActiveGen:       w.activeGen,
		ActiveLen:       w.active.Len(),
		WALDepth:        w.log.Depth(),
		WALBytes:        w.log.SizeBytes(),
		PendingSegments: len(w.frozen),
		ReplayedRecords: w.replayed,
		TornBytes:       w.tornBytes,
	}
	w.wmu.Unlock()
	for _, seg := range ix.stack.Segments() {
		if _, isFile := seg.(*segment.File); isFile {
			s.FileSegments++
		}
	}
	s.Tombstones = ix.stack.NumTombstones()
	s.Seals = w.seals.Load()
	s.Compactions = w.compactions.Load()
	s.FullCompactions = w.fullCompactions.Load()
	s.Appends = w.appends.Load()
	return s, true
}

// SetReorgHook registers fn to run after every segment reorganization —
// seal, background compaction, full compaction. Serving layers use it to
// advance their cache generation, exactly as they do after a write. A nil
// fn clears the hook. Only a durable index reorganizes, so on any other
// the hook never runs.
func (ix *Index) SetReorgHook(fn func()) {
	if fn == nil {
		fn = func() {}
	}
	ix.wr.reorgHook.Store(fn)
}

func (w *writer) notifyReorg() {
	if fn, ok := w.reorgHook.Load().(func()); ok {
		fn()
	}
}

// CreateOnline creates a new empty online index in dir (created if
// missing): a manifest, an empty generation-1 WAL, and an empty active
// memory segment. The returned Index serves reads like any other and
// accepts durable, WAL-backed Insert/Delete.
func CreateOnline(dir string, opts Options, oo OnlineOptions) (*Index, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ext, err := opts.extension()
	if err != nil {
		return nil, err
	}
	// Every seal writes a pagefile, so the page must hold the encoder's
	// minimum node even where an in-memory Build would clamp to it.
	if least := pagefile.MinPageSize(ext, opts.Dim); opts.PageSize < least {
		return nil, fmt.Errorf("%w: %s pages of %d bytes cannot hold two %d-d entries; the smallest page size that can is %d",
			ErrInvalidOptions, opts.Method, opts.PageSize, opts.Dim, least)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &writer{
		ext:           ext,
		dir:           dir,
		poolPages:     poolOrDefault(oo.PoolPages),
		sealThreshold: oo.SealThreshold,
		activeGen:     1,
		activeWALGens: []uint64{1},
	}
	if w.active, err = w.newMem(opts, 1); err != nil {
		return nil, err
	}
	if w.log, err = wal.Create(filepath.Join(dir, wal.FileName(1)), opts.Dim, 1); err != nil {
		return nil, err
	}
	ix := &Index{stack: segment.NewStack([]segment.Segment{w.active}, nil), opts: opts, wr: w}
	if err := w.commitManifest(ix, nil, []uint64{1}); err != nil {
		w.log.Close()
		return nil, err
	}
	return ix, nil
}

// OpenOnline opens the online index in dir: the manifest names the live
// segment pagefiles and WALs, the segments are opened demand-paged, and
// every listed WAL is replayed oldest-first into a fresh active memory
// segment — so every write acknowledged before a crash is served again. A
// torn WAL tail (a crash mid-append) is truncated away; it was never
// acknowledged. Unreferenced segment/WAL/tmp files left by a crash
// mid-compaction are removed.
func OpenOnline(dir string, oo OnlineOptions) (*Index, error) {
	m, err := pagefile.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	opts := Options{
		Method:   Method(m.Method),
		Dim:      m.Dim,
		PageSize: m.PageSize,
		XJBBites: m.XJBX,
	}
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ext, err := opts.extension()
	if err != nil {
		return nil, err
	}
	activeGen := m.WALGens[len(m.WALGens)-1]
	w := &writer{
		ext:           ext,
		dir:           dir,
		poolPages:     poolOrDefault(oo.PoolPages),
		sealThreshold: oo.SealThreshold,
		activeGen:     activeGen,
		activeWALGens: slices.Clone(m.WALGens),
	}

	janitor(dir, m)

	segs := make([]segment.Segment, 0, len(m.SegmentGens)+1)
	closeAll := func() {
		for _, s := range segs {
			s.Close()
		}
	}
	for _, gen := range m.SegmentGens {
		// The pagefile header carries the access-method parameters, exactly
		// as in OpenWithOptions; am.Options{} defers to it.
		fs, err := segment.OpenFile(filepath.Join(dir, pagefile.SegmentFileName(gen)), am.Options{}, w.poolPages, gen)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("blobindex: open segment gen %d: %w", gen, err)
		}
		segs = append(segs, fs)
	}
	if w.active, err = w.newMem(opts, activeGen); err != nil {
		closeAll()
		return nil, err
	}
	segs = append(segs, w.active)

	tombs := make(map[int64]uint64, len(m.Tombstones))
	for _, t := range m.Tombstones {
		tombs[t.RID] = t.Watermark
	}
	ix := &Index{stack: segment.NewStack(segs, tombs), opts: opts, wr: w}

	// Replay oldest-first: every log's records apply in append order, so
	// the memory segment converges to exactly the acknowledged state. Only
	// the youngest log stays open — it is the active log.
	for i, gen := range m.WALGens {
		log, n, torn, err := wal.Open(filepath.Join(dir, wal.FileName(gen)), func(rec wal.Record) error {
			return w.applyReplayed(ix, rec)
		})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("blobindex: replay wal gen %d: %w", gen, err)
		}
		if log.Dim() != opts.Dim {
			log.Close()
			closeAll()
			return nil, fmt.Errorf("blobindex: wal gen %d has dimension %d, index has %d",
				gen, log.Dim(), opts.Dim)
		}
		w.replayed += n
		w.tornBytes += torn
		if i == len(m.WALGens)-1 {
			w.log = log
		} else {
			log.Close()
		}
	}
	return ix, nil
}

// applyReplayed applies one replayed WAL record: the recovery-time image of
// Insert/Delete minus the logging. Deletes re-derive their placement — a
// point replayed into the memory segment is deleted there, a point in a
// sealed file segment gets its tombstone back.
func (w *writer) applyReplayed(ix *Index, rec wal.Record) error {
	key := geom.Vector(rec.Key)
	switch rec.Op {
	case wal.OpInsert:
		return w.active.Insert(gist.Point{Key: key, RID: rec.RID})
	case wal.OpDelete:
		if ok, err := w.active.Tree().Lookup(key, rec.RID); err != nil {
			return err
		} else if ok {
			_, err := w.active.Delete(key, rec.RID)
			return err
		}
		if ok, err := ix.stack.Contains(key, rec.RID, w.activeGen); err != nil {
			return err
		} else if ok {
			ix.stack.AddTombstone(rec.RID, w.activeGen)
		}
		return nil
	}
	return fmt.Errorf("blobindex: unknown wal op %d", rec.Op)
}

// janitor removes files a crash left unreferenced: temp files from torn
// saves and segment/WAL generations the manifest does not list (a
// compaction that wrote its output but died before the manifest commit).
func janitor(dir string, m *pagefile.Manifest) {
	keep := map[string]bool{pagefile.ManifestName: true}
	for _, g := range m.SegmentGens {
		keep[pagefile.SegmentFileName(g)] = true
	}
	for _, g := range m.WALGens {
		keep[wal.FileName(g)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if keep[name] {
			continue
		}
		segMatch, _ := filepath.Match("seg-*.idx", name)
		walMatch, _ := filepath.Match("wal-*.log", name)
		if segMatch || walMatch || filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// kickMaintenance starts a background seal+compact cycle unless one is
// already running.
func (w *writer) kickMaintenance(ix *Index) {
	if !w.mmu.TryLock() {
		return
	}
	go func() {
		defer w.mmu.Unlock()
		if w.sealLocked(ix) == nil {
			w.compactPendingLocked(ix)
		}
	}()
}

// SealActive freezes the active memory segment and starts a fresh WAL and
// memory segment: the frozen segment becomes immutable, keeps serving
// reads, and waits for CompactPending to bulk-load it into a pagefile.
// ErrNotOnline on an index with no WAL.
func (ix *Index) SealActive() error {
	w, err := ix.durable()
	if err != nil {
		return err
	}
	w.mmu.Lock()
	defer w.mmu.Unlock()
	return w.sealLocked(ix)
}

// sealLocked is SealActive with mmu held. Protocol: create the next WAL,
// commit a manifest listing both logs (so a crash at any point replays
// every acknowledged write), then swap the memory segments under wmu.
func (w *writer) sealLocked(ix *Index) error {
	if err := w.lock(); err != nil {
		return err
	}
	oldGen := w.activeGen
	newGen := oldGen + 1
	w.wmu.Unlock()

	newMem, err := w.newMem(ix.opts, newGen)
	if err != nil {
		return err
	}
	newLog, err := wal.Create(filepath.Join(w.dir, wal.FileName(newGen)), ix.opts.Dim, newGen)
	if err != nil {
		return err
	}
	// Commit point: the manifest now lists both the old log (the frozen
	// segment's replay source) and the new, empty active log. Writers keep
	// appending to the old log until the swap below, which is fine — that
	// log is listed.
	walGens := w.liveWALGens()
	walGens = append(walGens, newGen)
	if err := w.commitManifest(ix, nil, walGens); err != nil {
		newLog.Close()
		os.Remove(newLog.Path())
		return err
	}

	w.wmu.Lock()
	oldMem, oldLog := w.active, w.log
	oldMem.Seal()
	w.frozen = append(w.frozen, frozenMem{seg: oldMem, walGens: w.activeWALGens})
	w.active = newMem
	w.activeGen = newGen
	w.activeWALGens = []uint64{newGen}
	w.log = newLog
	ix.stack.Append(newMem)
	w.wmu.Unlock()

	oldLog.Close()
	w.seals.Add(1)
	w.notifyReorg()
	return nil
}

// CompactPending bulk-loads every sealed memory segment into an immutable
// pagefile segment, oldest first, committing each swap through the
// manifest and deleting the logs it retires. ErrNotOnline on an index with
// no WAL.
func (ix *Index) CompactPending() error {
	w, err := ix.durable()
	if err != nil {
		return err
	}
	w.mmu.Lock()
	defer w.mmu.Unlock()
	return w.compactPendingLocked(ix)
}

func (w *writer) compactPendingLocked(ix *Index) error {
	for {
		w.wmu.Lock()
		if len(w.frozen) == 0 || w.closed {
			w.wmu.Unlock()
			return nil
		}
		fz := w.frozen[0]
		w.wmu.Unlock()
		if err := w.compactOne(ix, fz); err != nil {
			return err
		}
		w.wmu.Lock()
		w.frozen = w.frozen[1:]
		w.wmu.Unlock()
		w.compactions.Add(1)
		w.notifyReorg()
	}
}

// compactOne turns one frozen memory segment into a pagefile segment of
// the SAME generation — tombstones recorded against it keep masking the
// new representation, so no mask is applied during the harvest. WAL
// retirement is strictly oldest-first (the compacted segment is always the
// oldest frozen one), which is what keeps "replay the listed logs in
// order" equivalent to the acknowledged write sequence after any crash.
func (w *writer) compactOne(ix *Index, fz frozenMem) error {
	gen := fz.seg.Gen()
	pts, err := segment.CollectPoints(fz.seg, nil, nil)
	if err != nil {
		return err
	}

	var fileSeg segment.Segment
	if len(pts) > 0 {
		tree, err := bulkLoad(w.ext, ix.opts, pts)
		if err != nil {
			return err
		}
		fs, err := w.writeSegment(tree, gen)
		if err != nil {
			return err
		}
		fileSeg = fs
	}

	// Commit: the manifest gains the new segment and drops the retired
	// logs. Before this write a crash replays the old logs (same data);
	// after it the janitor removes them.
	segGens := w.fileSegGens(ix)
	if fileSeg != nil {
		segGens = append(segGens, gen)
		slices.Sort(segGens)
	}
	walGens := w.liveWALGensExcept(fz.walGens)
	if err := w.commitManifest(ix, segGens, walGens); err != nil {
		if fileSeg != nil {
			fileSeg.Close()
		}
		return err
	}

	ix.stack.Replace([]segment.Segment{fz.seg}, fileSeg, false)
	for _, g := range fz.walGens {
		os.Remove(filepath.Join(w.dir, wal.FileName(g)))
	}
	return nil
}

// CompactAll merges every live segment — sealed pagefiles, frozen memory
// segments and the active segment — into one freshly bulk-loaded pagefile
// segment, applying and clearing all delete tombstones, then starts a new
// empty WAL and active segment. Writers are blocked for the duration;
// readers are not. ErrNotOnline on an index with no WAL.
func (ix *Index) CompactAll() error {
	w, err := ix.durable()
	if err != nil {
		return err
	}
	w.mmu.Lock()
	defer w.mmu.Unlock()
	if err := w.lock(); err != nil {
		return err
	}
	defer w.wmu.Unlock()

	mergedGen := w.activeGen
	newGen := mergedGen + 1

	tree, oldSegs, err := ix.mergeLive()
	if err != nil {
		return err
	}
	var fileSeg segment.Segment
	var segGens []uint64
	if tree.Len() > 0 {
		fs, err := w.writeSegment(tree, mergedGen)
		if err != nil {
			return err
		}
		fileSeg = fs
		segGens = []uint64{mergedGen}
	}

	newMem, err := w.newMem(ix.opts, newGen)
	if err != nil {
		return err
	}
	newLog, err := wal.Create(filepath.Join(w.dir, wal.FileName(newGen)), ix.opts.Dim, newGen)
	if err != nil {
		return err
	}

	// Commit point: one segment (or none), one empty log, no tombstones.
	if err := w.commitManifestTombs(ix, segGens, []uint64{newGen}, nil); err != nil {
		newLog.Close()
		os.Remove(newLog.Path())
		if fileSeg != nil {
			fileSeg.Close()
		}
		return err
	}

	retiredWALs := w.liveWALGens()
	ix.stack.Replace(oldSegs, fileSeg, true)
	ix.stack.Append(newMem)
	oldLog := w.log
	w.active = newMem
	w.activeGen = newGen
	w.activeWALGens = []uint64{newGen}
	w.log = newLog
	w.frozen = nil

	oldLog.Close()
	for _, seg := range oldSegs {
		seg.Close()
	}
	for _, g := range retiredWALs {
		os.Remove(filepath.Join(w.dir, wal.FileName(g)))
	}
	for _, seg := range oldSegs {
		if fs, ok := seg.(*segment.File); ok && fs.Gen() != mergedGen {
			os.Remove(fs.Path())
		}
	}

	w.fullCompactions.Add(1)
	w.notifyReorg()
	return nil
}

// mergeLive harvests every live point of the stack, tombstone masks
// applied, and bulk-loads them into one tree: the merge of a full
// compaction, the moment deletes become physical, which Save also uses for
// a stack of several segments. It returns the segments the tree replaces.
// Callers hold mmu and wmu.
func (ix *Index) mergeLive() (*gist.Tree, []segment.Segment, error) {
	tombs := ix.stack.Tombstones()
	segs := ix.stack.Segments()
	var pts []gist.Point
	for _, seg := range segs {
		var err error
		if pts, err = segment.CollectPoints(seg, tombs, pts); err != nil {
			return nil, nil, err
		}
	}
	tree, err := bulkLoad(ix.wr.ext, ix.opts, pts)
	return tree, segs, err
}

// writeSegment saves tree as the directory's segment pagefile of
// generation gen and opens it demand-paged.
func (w *writer) writeSegment(tree *gist.Tree, gen uint64) (*segment.File, error) {
	path := filepath.Join(w.dir, pagefile.SegmentFileName(gen))
	if err := pagefile.Save(path, tree); err != nil {
		return nil, err
	}
	return segment.OpenFile(path, am.Options{}, w.poolPages, gen)
}

// liveWALGens returns every live WAL generation oldest-first: the frozen
// segments' logs followed by the active segment's. Callers hold mmu, which
// every mutator of frozen/activeWALGens also holds, so no wmu is needed
// (CompactAll calls this with wmu already held).
func (w *writer) liveWALGens() []uint64 {
	var gens []uint64
	for _, fz := range w.frozen {
		gens = append(gens, fz.walGens...)
	}
	return append(gens, w.activeWALGens...)
}

func (w *writer) liveWALGensExcept(drop []uint64) []uint64 {
	gens := w.liveWALGens()
	out := gens[:0]
	for _, g := range gens {
		if !slices.Contains(drop, g) {
			out = append(out, g)
		}
	}
	return out
}

// fileSegGens lists the stack's pagefile segment generations, ascending.
func (w *writer) fileSegGens(ix *Index) []uint64 {
	var gens []uint64
	for _, seg := range ix.stack.Segments() {
		if fs, ok := seg.(*segment.File); ok {
			gens = append(gens, fs.Gen())
		}
	}
	slices.Sort(gens)
	return gens
}

// commitManifest atomically commits the directory state: segGens (nil
// means "derive from the stack"), the given WAL generations, and the
// stack's current tombstones.
func (w *writer) commitManifest(ix *Index, segGens []uint64, walGens []uint64) error {
	if segGens == nil {
		segGens = w.fileSegGens(ix)
	}
	tombs := ix.stack.Tombstones()
	list := make([]pagefile.Tombstone, 0, len(tombs))
	for rid, wm := range tombs {
		list = append(list, pagefile.Tombstone{RID: rid, Watermark: wm})
	}
	slices.SortFunc(list, func(a, b pagefile.Tombstone) int {
		switch {
		case a.RID < b.RID:
			return -1
		case a.RID > b.RID:
			return 1
		}
		return 0
	})
	return w.commitManifestTombs(ix, segGens, walGens, list)
}

func (w *writer) commitManifestTombs(ix *Index, segGens, walGens []uint64, tombs []pagefile.Tombstone) error {
	return pagefile.WriteManifest(w.dir, &pagefile.Manifest{
		Method:      string(ix.opts.Method),
		Dim:         ix.opts.Dim,
		PageSize:    ix.opts.PageSize,
		XJBX:        ix.opts.XJBBites,
		SegmentGens: segGens,
		WALGens:     walGens,
		Tombstones:  tombs,
	})
}
