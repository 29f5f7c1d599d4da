package pagefile

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"blobindex/internal/faultio"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/page"
	"blobindex/internal/str"
)

// Sidecar format: the full-histogram side store behind the filter-and-refine
// search tier. The 5-D index file answers the filter stage; the refine stage
// needs every candidate's full 218-d feature vector, which would bloat leaf
// pages ~44× if stored inline. Instead the full vectors live in a sidecar
// pagefile, demand-paged through the same PinnedPool + CRC + retry
// discipline as node pages.
//
// A refined query's candidates are a neighbourhood in index space, so the
// sidecar is clustered the way the index is: records are laid out in the STR
// tile order bulk load gives the tree's leaves, and the candidates of one
// query land on a few runs of adjacent pages instead of one page each. A
// record's position in that order is its slot; slot s is record s%perPage of
// data page s/perPage, and every data page but the last is full.
//
// Layout, sidecar format version 2 (little endian):
//
//	header page:  magic "BLOBSIDE", version byte, pageSize, fullDim,
//	              indexDim, perPage, numDataPages, metaPages, count,
//	              meta CRC32, header CRC32 (computed with the CRC field
//	              zeroed)
//	meta pages:   one contiguous blob, CRC-checked as a unit: the projection
//	              mean (fullDim float64s), the projection components
//	              (indexDim rows × fullDim float64s), and the RID directory
//	              (count int64s: the RID stored in each slot, slot order)
//	data pages:   numRecords uint16, zero uint16, page CRC32 (bytes 4:8,
//	              computed with those bytes zeroed); then records at byte 8:
//	              RID int64 + feature (fullDim float64s), in slot order
//
// Storing the SVD projection in the sidecar makes a refined request
// self-contained: clients send the full-dimensionality query, the store
// projects it for the filter stage, and the refine stage scores the same
// vector against stored features — exactly the Blobworld pipeline shape. The
// same projection is what SaveSidecar clusters by.
const (
	sideMagic   = "BLOBSIDE"
	sideVersion = 2
)

// sideHeaderFixed is the meaningful prefix of the sidecar header page.
const sideHeaderFixed = len(sideMagic) + 1 + 4*6 + 8 + 4 + 4

// ErrRIDNotFound marks a sidecar feature lookup for a RID the store does not
// hold — a refined search over an index whose sidecar was generated from a
// different corpus.
var ErrRIDNotFound = errors.New("pagefile: rid not in sidecar")

// sideHeader carries the decoded sidecar header fields.
type sideHeader struct {
	pageSize  int
	fullDim   int
	indexDim  int
	perPage   int
	dataPages int
	metaPages int
	count     int
	metaCRC   uint32
}

// SidecarRecordsPerPage returns how many fullDim-dimensional records fit one
// data page, for sizing and reporting.
func SidecarRecordsPerPage(pageSize, fullDim int) int {
	return (pageSize - 8) / (8 + fullDim*8)
}

// project maps a full-dimensionality vector into index space, appending to
// dst: comp is the row-major indexDim×len(mean) component matrix. The
// arithmetic matches svd.PCA.Project term for term.
func project(mean, comp, full, dst []float64) []float64 {
	for len(comp) > 0 {
		row := comp[:len(mean)]
		comp = comp[len(mean):]
		var acc float64
		for j := range row {
			acc += row[j] * (full[j] - mean[j])
		}
		dst = append(dst, acc)
	}
	return dst
}

// sidecarOrder returns the input positions of the records in slot order: the
// STR tile order of their projections at the leaf capacity of an index over
// the same points, starting from RID order so the layout does not depend on
// the order the caller listed the records in. Duplicate RIDs, which would
// make lookups ambiguous, are rejected.
func sidecarOrder(pageSize int, mean, comp []float64, rids []int64, feats [][]float64) ([]int, error) {
	order := make([]int, len(rids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rids[a], rids[b]) })
	for i := 1; i < len(order); i++ {
		if rids[order[i]] == rids[order[i-1]] {
			return nil, fmt.Errorf("pagefile: duplicate rid %d in sidecar", rids[order[i]])
		}
	}
	indexDim := len(comp) / len(mean)
	if indexDim == 0 {
		return order, nil // no projection to cluster by
	}
	keys := make([]float64, 0, len(order)*indexDim)
	pts := make([]gist.Point, len(order))
	for i, oi := range order {
		keys = project(mean, comp, feats[oi], keys)
		pts[i] = gist.Point{Key: geom.Vector(keys[i*indexDim : (i+1)*indexDim]), RID: int64(oi)}
	}
	str.Order(pts, page.LeafCapacity(pageSize, indexDim))
	for i, p := range pts {
		order[i] = int(p.RID)
	}
	return order, nil
}

// SaveSidecar writes the full-feature side store: one record per (rid,
// feature) pair plus the dimensionality-reduction projection (mean and
// row-major components) the filter stage uses to map full queries into index
// space. rids and feats are parallel and may come in any order (RIDs must be
// unique); records are written clustered by their projection, see
// sidecarOrder. Like Save, the write is crash-atomic: temp file, fsync,
// rename, directory sync.
func SaveSidecar(path string, pageSize int, mean []float64, components [][]float64, rids []int64, feats [][]float64) error {
	if pageSize < 256 {
		return fmt.Errorf("pagefile: sidecar page size %d too small", pageSize)
	}
	if len(rids) != len(feats) {
		return fmt.Errorf("pagefile: %d rids for %d features", len(rids), len(feats))
	}
	if len(feats) == 0 {
		return fmt.Errorf("pagefile: empty sidecar")
	}
	if len(feats) > math.MaxUint32 {
		return fmt.Errorf("pagefile: %d records exceed the sidecar's 32-bit slots", len(feats))
	}
	fullDim := len(mean)
	for i, f := range feats {
		if len(f) != fullDim {
			return fmt.Errorf("pagefile: feature %d has dim %d, want %d", i, len(f), fullDim)
		}
	}
	indexDim := len(components)
	comp := make([]float64, 0, indexDim*fullDim)
	for i, c := range components {
		if len(c) != fullDim {
			return fmt.Errorf("pagefile: component %d has dim %d, want %d", i, len(c), fullDim)
		}
		comp = append(comp, c...)
	}
	perPage := SidecarRecordsPerPage(pageSize, fullDim)
	if perPage < 1 {
		return fmt.Errorf("pagefile: page size %d cannot hold one %d-d record", pageSize, fullDim)
	}
	order, err := sidecarOrder(pageSize, mean, comp, rids, feats)
	if err != nil {
		return err
	}
	dataPages := (len(order) + perPage - 1) / perPage

	// Meta blob: mean + components + RID directory.
	meta := make([]byte, 0, 8*(fullDim+len(comp)+len(order)))
	for _, v := range mean {
		meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(v))
	}
	for _, v := range comp {
		meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(v))
	}
	for _, oi := range order {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(rids[oi]))
	}
	metaPages := (len(meta) + pageSize - 1) / pageSize
	metaCRC := crc32.ChecksumIEEE(meta)

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	writeErr := func() error {
		w := bufio.NewWriterSize(f, 1<<20)

		// Header page.
		hdr := make([]byte, pageSize)
		copy(hdr, sideMagic)
		hdr[len(sideMagic)] = sideVersion
		off := len(sideMagic) + 1
		put32 := func(v uint32) {
			binary.LittleEndian.PutUint32(hdr[off:], v)
			off += 4
		}
		put32(uint32(pageSize))
		put32(uint32(fullDim))
		put32(uint32(indexDim))
		put32(uint32(perPage))
		put32(uint32(dataPages))
		put32(uint32(metaPages))
		binary.LittleEndian.PutUint64(hdr[off:], uint64(len(order)))
		off += 8
		binary.LittleEndian.PutUint32(hdr[off:], metaCRC)
		off += 4
		binary.LittleEndian.PutUint32(hdr[off:], crc32.ChecksumIEEE(hdr))
		if _, err := w.Write(hdr); err != nil {
			return err
		}

		// Meta pages: the blob zero-padded to a page boundary.
		if _, err := w.Write(meta); err != nil {
			return err
		}
		if pad := metaPages*pageSize - len(meta); pad > 0 {
			if _, err := w.Write(make([]byte, pad)); err != nil {
				return err
			}
		}

		// Data pages.
		buf := make([]byte, pageSize)
		for p := 0; p < dataPages; p++ {
			for i := range buf {
				buf[i] = 0
			}
			lo, hi := p*perPage, (p+1)*perPage
			if hi > len(order) {
				hi = len(order)
			}
			binary.LittleEndian.PutUint16(buf[0:], uint16(hi-lo))
			pos := 8
			for _, oi := range order[lo:hi] {
				binary.LittleEndian.PutUint64(buf[pos:], uint64(rids[oi]))
				pos += 8
				for _, v := range feats[oi] {
					binary.LittleEndian.PutUint64(buf[pos:], math.Float64bits(v))
					pos += 8
				}
			}
			binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf))
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return w.Flush()
	}()
	if writeErr == nil {
		writeErr = f.Sync()
	}
	if cerr := f.Close(); writeErr == nil {
		writeErr = cerr
	}
	if writeErr != nil {
		os.Remove(tmp)
		return fmt.Errorf("pagefile: write sidecar %s: %w", tmp, writeErr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// SideStore serves full-feature lookups from a sidecar file, demand-paged
// through a pinning LRU pool with the node-page retry discipline: transient
// read failures retry with jittered exponential backoff, checksum mismatches
// fail immediately. Safe for any number of concurrent readers.
//
// A frame is the page as read: a miss reads the page's bytes straight into
// it, and the records' features are handed out as views of those bytes, so
// nothing is decoded or copied. That makes the store little-endian only:
// OpenSidecar refuses a big-endian host. A page miss allocates nothing in
// the steady state: the frame the pool evicts to make room comes back
// through the pool's evict hook and is read into by a later miss. A frame is
// therefore in exactly one place at a time — resident in the pool (readable
// while pinned), on the free list, or private to the one load filling it —
// and only a successful load moves it into the pool.
type SideStore struct {
	f    faultio.File
	h    sideHeader
	pool *page.PinnedPool

	mean   []float64        // projection mean, length fullDim
	comp   []float64        // projection components, row-major indexDim×fullDim
	rids   []int64          // the RID directory: rids[slot]
	slotOf map[int64]uint32 // its inverse

	freeMu sync.Mutex
	free   *sideFrame // frames awaiting reuse, chained through next

	retries atomic.Int64
	gaveUp  atomic.Int64
	closed  atomic.Bool
}

// sideFrame holds one data page exactly as read from the file. words is the
// page as ⌈pageSize/8⌉ float64s, so it is 8-byte aligned; raw is the same
// memory as its first pageSize bytes, the buffer the page is read into.
// Every record is a whole number of words (RID, then fullDim float64s) from
// byte 8 on, so record r's feature is the words from 2 + r·(1+fullDim):
// little-endian float64s read in place.
type sideFrame struct {
	words []float64
	raw   []byte
	next  *sideFrame // free-list link
}

// OpenSidecar opens a side store with a buffer pool of poolPages frames.
func OpenSidecar(path string, poolPages int) (*SideStore, error) {
	return OpenSidecarIO(path, poolPages, nil)
}

// OpenSidecarIO is OpenSidecar with an I/O shim for fault injection: when
// wrap is non-nil, demand-paged record reads go through wrap(file), file
// being the read-only mapping. The header and meta section are read from
// the real file, so a faulty shim degrades lookups, not opening.
func OpenSidecarIO(path string, poolPages int, wrap func(faultio.File) faultio.File) (*SideStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openSidecar(f, poolPages)
	if err != nil {
		f.Close()
		return nil, err
	}
	m, err := mapFile(f)
	if err != nil {
		return nil, err
	}
	s.f = m
	if wrap != nil {
		s.f = wrap(m)
	}
	return s, nil
}

func openSidecar(f *os.File, poolPages int) (*SideStore, error) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		return nil, errors.New("pagefile: the sidecar reads its little-endian pages in place and needs a little-endian host")
	}
	r := bufio.NewReaderSize(f, 1<<20)
	fixed := make([]byte, sideHeaderFixed)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, fmt.Errorf("pagefile: short sidecar header: %w", err)
	}
	if string(fixed[:len(sideMagic)]) != sideMagic {
		return nil, fmt.Errorf("%w: not a sidecar", ErrBadMagic)
	}
	if v := fixed[len(sideMagic)]; v != sideVersion {
		return nil, fmt.Errorf("%w: sidecar version %d, want %d (regenerate with `datagen -side`)", ErrVersion, v, sideVersion)
	}
	var h sideHeader
	off := len(sideMagic) + 1
	get32 := func() int {
		v := binary.LittleEndian.Uint32(fixed[off:])
		off += 4
		return int(v)
	}
	h.pageSize = get32()
	h.fullDim = get32()
	h.indexDim = get32()
	h.perPage = get32()
	h.dataPages = get32()
	h.metaPages = get32()
	count := binary.LittleEndian.Uint64(fixed[off:])
	off += 8
	h.metaCRC = binary.LittleEndian.Uint32(fixed[off:])
	off += 4
	storedCRC := binary.LittleEndian.Uint32(fixed[off:])
	// The shape fields must agree with each other, not merely be in range:
	// every later bound (slot → page, record → offset, meta length) is
	// derived from them. The sizes are checked against the file before
	// anything is allocated from them (the page-size cap keeps that product
	// from overflowing).
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if h.pageSize < 256 || h.pageSize > 1<<24 || h.fullDim < 1 || h.perPage < 1 ||
		h.perPage != SidecarRecordsPerPage(h.pageSize, h.fullDim) ||
		count < 1 || count > math.MaxUint32 ||
		uint64(h.dataPages) != (count+uint64(h.perPage)-1)/uint64(h.perPage) ||
		int64(1+h.metaPages+h.dataPages)*int64(h.pageSize) > st.Size() {
		return nil, fmt.Errorf("pagefile: corrupt sidecar header (page=%d dim=%d/%d per=%d pages=%d+%d count=%d size=%dB)",
			h.pageSize, h.fullDim, h.indexDim, h.perPage, h.metaPages, h.dataPages, count, st.Size())
	}
	h.count = int(count)
	rest := make([]byte, h.pageSize-sideHeaderFixed)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("pagefile: short sidecar header page: %w", err)
	}
	binary.LittleEndian.PutUint32(fixed[off:], 0)
	crc := crc32.ChecksumIEEE(fixed)
	crc = crc32.Update(crc, crc32.IEEETable, rest)
	if crc != storedCRC {
		return nil, fmt.Errorf("%w: sidecar header", ErrChecksum)
	}

	// Meta section: projection + RID directory, verified as one blob.
	metaLen := 8 * (int64(h.fullDim) + int64(h.indexDim)*int64(h.fullDim) + int64(h.count))
	if metaLen > int64(h.metaPages)*int64(h.pageSize) {
		return nil, fmt.Errorf("pagefile: sidecar meta (%dB) overflows %d meta pages", metaLen, h.metaPages)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, fmt.Errorf("pagefile: short sidecar meta: %w", err)
	}
	if crc32.ChecksumIEEE(meta) != h.metaCRC {
		return nil, fmt.Errorf("%w: sidecar meta", ErrChecksum)
	}
	s := &SideStore{
		h:      h,
		pool:   page.NewPinnedPool(poolPages),
		mean:   make([]float64, h.fullDim),
		comp:   make([]float64, h.indexDim*h.fullDim),
		rids:   make([]int64, h.count),
		slotOf: make(map[int64]uint32, h.count),
	}
	pos := 0
	for i := range s.mean {
		s.mean[i] = math.Float64frombits(binary.LittleEndian.Uint64(meta[pos:]))
		pos += 8
	}
	for i := range s.comp {
		s.comp[i] = math.Float64frombits(binary.LittleEndian.Uint64(meta[pos:]))
		pos += 8
	}
	for slot := range s.rids {
		rid := int64(binary.LittleEndian.Uint64(meta[pos:]))
		pos += 8
		if prev, dup := s.slotOf[rid]; dup {
			return nil, fmt.Errorf("pagefile: sidecar directory lists rid %d in slots %d and %d", rid, prev, slot)
		}
		s.rids[slot] = rid
		s.slotOf[rid] = uint32(slot)
	}
	s.pool.SetEvictHook(func(v any) { s.recycle(v.(*sideFrame)) })
	return s, nil
}

// FullDim returns the stored feature dimensionality (218 for Blobworld).
func (s *SideStore) FullDim() int { return s.h.fullDim }

// IndexDim returns the projection's output dimensionality — the
// dimensionality of the index the sidecar rides along with.
func (s *SideStore) IndexDim() int { return s.h.indexDim }

// Len returns the number of stored records.
func (s *SideStore) Len() int { return s.h.count }

// Project maps a full-dimensionality vector into index space with the stored
// reduction, appending to dst (pass dst[:0] to reuse a buffer). The
// arithmetic matches svd.PCA.Project term for term, so projecting a stored
// feature reproduces its indexed key bit for bit.
func (s *SideStore) Project(full []float64, dst []float64) []float64 {
	return project(s.mean, s.comp, full, dst)
}

// Projection returns the stored reduction as read-only views: the mean
// (fullDim coordinates) and the row-major indexDim×fullDim components.
func (s *SideStore) Projection() (mean, comp []float64) { return s.mean, s.comp }

// RecordsPerPage returns how many records a data page holds: slot s lives
// on data page s / RecordsPerPage().
func (s *SideStore) RecordsPerPage() int { return s.h.perPage }

// Slot returns where rid's record lives in the file's clustered order; ok is
// false for a RID the store does not hold. Slots of records close in index
// space are close, and slots that differ by less than a page's worth of
// records share a page — sort a query's slots before visiting them.
func (s *SideStore) Slot(rid int64) (slot uint32, ok bool) {
	slot, ok = s.slotOf[rid]
	return slot, ok
}

// Visit calls fn(i, feat) for every slots[i], in order, with feat the
// record's fullDim coordinates. feat is a view into the resident page frame,
// valid only until fn returns: score it or copy it, do not keep it. Each run
// of consecutive slots on one page costs one pin (a pool hit, or a miss that
// reads the page with the retry discipline of node pages), so over ascending
// slots every distinct page is pinned exactly once; pages is the number of
// pins made. On error the visit stops; fn has run for the slots before the
// failing page.
func (s *SideStore) Visit(slots []uint32, fn func(i int, feat []float64)) (pages int, err error) {
	for i := 0; i < len(slots); pages++ {
		if int64(slots[i]) >= int64(s.h.count) {
			return pages, fmt.Errorf("pagefile: sidecar slot %d out of range [0,%d)", slots[i], s.h.count)
		}
		if i, err = s.visitPage(slots, i, fn); err != nil {
			return pages, err
		}
	}
	return pages, nil
}

// visitPage pins the page of slots[i], runs fn over the run of slots starting
// at i that live on it, and returns the index after the run.
func (s *SideStore) visitPage(slots []uint32, i int, fn func(i int, feat []float64)) (int, error) {
	perPage, dim := uint32(s.h.perPage), s.h.fullDim
	id := page.PageID(slots[i] / perPage)
	fr, err := s.pin(id)
	if err != nil {
		return i, err
	}
	defer s.pool.Unpin(id)
	// The last page may be short: its run also ends at the first slot past
	// the records, which Visit then reports.
	first, n := uint32(id)*perPage, min(perPage, uint32(s.h.count)-uint32(id)*perPage)
	for ; i < len(slots) && slots[i]-first < n; i++ {
		// Record r's feature ends at byte 8 + (r+1)·(8 + 8·dim), within the
		// page's bytes: openSidecar accepts perPage only as
		// SidecarRecordsPerPage(pageSize, fullDim), so 8 + perPage·(8 +
		// 8·fullDim) ≤ pageSize.
		at := 2 + int(slots[i]-first)*(1+dim)
		fn(i, fr.words[at:at+dim:at+dim])
	}
	return i, nil
}

// Feature reads the full feature vector of rid, appending its fullDim
// coordinates to dst (pass a reused dst[:0] for an allocation-free steady
// state): a one-slot Visit that copies the record out. An unknown rid returns
// ErrRIDNotFound.
func (s *SideStore) Feature(rid int64, dst []float64) ([]float64, error) {
	slot, ok := s.Slot(rid)
	if !ok {
		return dst, fmt.Errorf("%w: %d", ErrRIDNotFound, rid)
	}
	one := [1]uint32{slot}
	_, err := s.Visit(one[:], func(_ int, feat []float64) { dst = append(dst, feat...) })
	return dst, err
}

// pin returns data page id's frame, pinned: the resident one, or on a miss a
// recycled frame filled from the file and registered with the pool. A frame
// whose read failed goes back to the free list, never into the pool.
func (s *SideStore) pin(id page.PageID) (*sideFrame, error) {
	if v, ok := s.pool.Pin(id); ok {
		return v.(*sideFrame), nil
	}
	fr := s.takeFrame()
	if err := s.readSidePageRetry(id, fr); err != nil {
		s.recycle(fr)
		return nil, err
	}
	got := s.pool.Insert(id, fr).(*sideFrame)
	if got != fr {
		s.recycle(fr) // a concurrent loader won the race; its frame is the pinned one
	}
	return got, nil
}

// takeFrame returns a frame no one else references: a recycled one when the
// free list has any, else a new one.
func (s *SideStore) takeFrame() *sideFrame {
	s.freeMu.Lock()
	fr := s.free
	if fr != nil {
		s.free, fr.next = fr.next, nil
	}
	s.freeMu.Unlock()
	if fr == nil {
		words := make([]float64, (s.h.pageSize+7)/8)
		fr = &sideFrame{
			words: words,
			raw:   unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), s.h.pageSize),
		}
	}
	return fr
}

// recycle puts a frame nothing references any more on the free list. It is
// the pool's evict hook, so it runs under the pool's lock and takes only its
// own.
func (s *SideStore) recycle(fr *sideFrame) {
	s.freeMu.Lock()
	fr.next, s.free = s.free, fr
	s.freeMu.Unlock()
}

// readSidePageRetry reads a data page into fr, retrying transient failures
// with the same jittered backoff budget as node-page pins.
func (s *SideStore) readSidePageRetry(id page.PageID, fr *sideFrame) error {
	for attempt := 0; ; attempt++ {
		err := s.readSidePage(id, fr)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrTransient) || attempt >= pinAttempts-1 {
			if errors.Is(err, ErrTransient) {
				s.gaveUp.Add(1)
			}
			return err
		}
		s.retries.Add(1)
		delay := float64(pinRetryBase<<attempt) * (0.5 + rand.Float64())
		time.Sleep(time.Duration(delay))
	}
}

// readSidePage reads one data page into fr's bytes and verifies, in place,
// its CRC, its record count and that it holds the records the directory says
// it does. The features need no decoding: fr's views of them are read as is.
func (s *SideStore) readSidePage(id page.PageID, fr *sideFrame) error {
	buf := fr.raw
	off := int64(1+s.h.metaPages+int(id)) * int64(s.h.pageSize)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		if transientRead(err) {
			return fmt.Errorf("pagefile: read sidecar page %d: %w (%w)", id, err, ErrTransient)
		}
		return fmt.Errorf("pagefile: read sidecar page %d: %w", id, err)
	}
	storedCRC := binary.LittleEndian.Uint32(buf[4:])
	binary.LittleEndian.PutUint32(buf[4:], 0)
	if crc32.ChecksumIEEE(buf) != storedCRC {
		return fmt.Errorf("%w: sidecar page %d", ErrChecksum, id)
	}
	want := s.rids[int(id)*s.h.perPage:]
	if len(want) > s.h.perPage {
		want = want[:s.h.perPage]
	}
	if n := int(binary.LittleEndian.Uint16(buf[0:])); n != len(want) {
		return fmt.Errorf("pagefile: sidecar page %d holds %d records, directory says %d", id, n, len(want))
	}
	stride := 8 + 8*s.h.fullDim
	for i, rid := range want {
		if got := int64(binary.LittleEndian.Uint64(buf[8+i*stride:])); got != rid {
			return fmt.Errorf("pagefile: sidecar page %d record %d is rid %d, directory says %d", id, i, got, rid)
		}
	}
	return nil
}

// PoolStats reports the side store's buffer traffic, with the retry counters
// folded in the way Store.PoolStats does.
func (s *SideStore) PoolStats() page.PoolStats {
	st := s.pool.Stats()
	st.Retries = s.retries.Load()
	st.GaveUp = s.gaveUp.Load()
	return st
}

// EvictAll empties the pool of unpinned frames (cold restart, for
// experiments).
func (s *SideStore) EvictAll() { s.pool.EvictAll() }

// ResetStats zeroes the pool and retry counters.
func (s *SideStore) ResetStats() {
	s.pool.ResetStats()
	s.retries.Store(0)
	s.gaveUp.Store(0)
}

// Close releases the file. Idempotent, like Store.Close.
func (s *SideStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.f.Close()
}
