package pagefile

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"blobindex/internal/am"
	"blobindex/internal/faultio"
	"blobindex/internal/gist"
	"blobindex/internal/page"
)

// Store is the file-backed gist.NodeStore: nodes live in the pagefile and
// are decoded on demand through a pinning buffer pool, so a tree opened
// with OpenPaged answers queries by reading exactly the pages its
// traversals touch. This is the paper's operating regime — an index that
// does not fit in memory, served through a fixed buffer budget — made
// directly measurable: the pool counts hits, misses and evictions, and the
// store additionally attributes every real page read to its tree level so
// the amdb simulation's per-level I/O counts can be checked against actual
// buffer traffic.
//
// The store is read-only: a tree over it returns gist.ErrReadOnly from
// every mutating call, and the file is never written. It is safe for
// concurrent readers — the pool is internally locked, racing loads of the
// same page resolve to one resident copy, and the per-level counters are
// atomics, so Pin takes no store lock.
type Store struct {
	f       faultio.File
	h       header
	bpWords int
	ext     gist.Extension
	codec   am.PredicateCodec
	pool    *page.PinnedPool

	// retries counts page re-reads after a transient failure; gaveUp counts
	// pins that exhausted the retry budget and returned ErrTransient to the
	// traversal. Both are surfaced through PoolStats (and from there the
	// facade's BufferStats and amdb reports).
	retries atomic.Int64
	gaveUp  atomic.Int64

	// missByLevel counts real page reads by tree level of the page. It is
	// sized by the header's height, and decodeNodePage refuses a page whose
	// level is out of that range.
	missByLevel []atomic.Int64

	closed atomic.Bool // set by the first Close; later ones are no-ops
}

var (
	_ gist.NodeStore     = (*Store)(nil)
	_ gist.StatsProvider = (*Store)(nil)
)

// OpenPaged opens a pagefile for demand-paged querying with a buffer pool
// of poolPages frames. The returned tree is read-only: it serves searches
// without ever materializing more than the pool holds plus the pages
// currently pinned by active traversals, and its Insert, Delete and
// TightenPredicates return gist.ErrReadOnly. The Store is returned
// alongside the tree for lifecycle (Close) and statistics access; it is the
// same value as tree.Store().
func OpenPaged(path string, opts am.Options, poolPages int) (*gist.Tree, *Store, error) {
	return OpenPagedIO(path, opts, poolPages, nil)
}

// OpenPagedIO is OpenPaged with an I/O shim: when wrap is non-nil the
// store's demand-paged node reads go through wrap(file), file being the
// read-only mapping pages are copied from. The chaos experiment and the
// fault-tolerance tests pass a faultio.Injector here; the header is still
// read from the real file, so a faulty shim degrades queries, not opening.
func OpenPagedIO(path string, opts am.Options, poolPages int, wrap func(faultio.File) faultio.File) (*gist.Tree, *Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	h, err := readHeader(f)
	if err == nil {
		err = checkFileSize(f, h)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	ext, codec, err := extFor(h, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	m, err := mapFile(f)
	if err != nil {
		return nil, nil, err
	}
	var file faultio.File = m
	if wrap != nil {
		file = wrap(m)
	}
	s := &Store{
		f:           file,
		h:           h,
		bpWords:     ext.BPWords(h.dim),
		ext:         ext,
		codec:       codec,
		pool:        page.NewPinnedPool(poolPages),
		missByLevel: make([]atomic.Int64, h.height),
	}
	tree, err := gist.NewFromStore(ext, gist.Config{Dim: h.dim, PageSize: h.pageSize}, s,
		page.PageID(h.rootPage), h.height, h.count)
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return tree, s, nil
}

// Retry policy for transient page-read failures: pinAttempts total read
// attempts per Pin, with exponential backoff from pinRetryBase and ±50%
// jitter between attempts. At the default values a page that stays broken
// costs well under 2ms before the error surfaces, while a blip (one or two
// failed attempts) is absorbed invisibly.
const (
	pinAttempts  = 4
	pinRetryBase = 100 * time.Microsecond
)

// Pin returns the node for id, resident until the matching Unpin: from the
// buffer pool on a hit, and by reading and decoding its file page on a miss.
// Pages are read only on demand, so every miss is one read on this pin's
// behalf, attributed to the page's tree level.
// Transient read failures (ErrTransient) are retried with jittered
// exponential backoff up to pinAttempts; corruption (ErrChecksum, or a page
// that contradicts the header) fails immediately — re-reading cannot fix
// wrong bytes.
func (s *Store) Pin(id page.PageID) (*gist.Node, error) {
	if v, ok := s.pool.Pin(id); ok {
		return v.(*gist.Node), nil
	}
	n, err := s.readPageRetry(id)
	if err != nil {
		return nil, err
	}
	s.missByLevel[n.Level()].Add(1)
	// Insert resolves racing loaders to a single resident copy.
	return s.pool.Insert(id, n).(*gist.Node), nil
}

// readPageRetry reads a page, retrying transient failures with jittered
// backoff; a pin that exhausts the budget counts toward gaveUp.
func (s *Store) readPageRetry(id page.PageID) (*gist.Node, error) {
	for attempt := 0; ; attempt++ {
		n, err := s.readPage(id)
		if err == nil {
			return n, nil
		}
		if !errors.Is(err, ErrTransient) || attempt >= pinAttempts-1 {
			if errors.Is(err, ErrTransient) {
				s.gaveUp.Add(1)
			}
			return nil, err
		}
		s.retries.Add(1)
		delay := float64(pinRetryBase<<attempt) * (0.5 + rand.Float64())
		time.Sleep(time.Duration(delay))
	}
}

// transientRead reports whether a raw read error is worth retrying: an
// injected transient fault, or the interrupted/try-again errnos the OS uses
// for recoverable conditions.
func transientRead(err error) bool {
	return errors.Is(err, faultio.ErrTransient) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// Unpin releases one pin.
func (s *Store) Unpin(n *gist.Node) {
	s.pool.Unpin(n.ID())
}

// readPage reads and decodes one node page from the file.
func (s *Store) readPage(id page.PageID) (*gist.Node, error) {
	if id < 0 || int(id) >= s.h.numPages {
		return nil, fmt.Errorf("pagefile: page %d out of range (file has %d)", id, s.h.numPages)
	}
	buf := make([]byte, s.h.pageSize)
	if _, err := s.f.ReadAt(buf, int64(1+int(id))*int64(s.h.pageSize)); err != nil {
		if transientRead(err) {
			return nil, fmt.Errorf("pagefile: read page %d: %w (%w)", id, err, ErrTransient)
		}
		return nil, fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	level, flat, rids, preds, children, err := decodeNodePage(buf, int(id), s.h, s.bpWords, s.codec)
	if err != nil {
		return nil, err
	}
	if level == 0 {
		return gist.NewLeafNode(id, s.h.dim, flat, rids), nil
	}
	return gist.NewInnerNode(id, level, s.h.dim, preds, children), nil
}

// PoolStats implements gist.StatsProvider. On top of the pool's own
// counters it reports the store's transient-read retry traffic: Retries is
// page re-reads after a transient failure, GaveUp is pins that exhausted
// the retry budget and surfaced ErrTransient.
func (s *Store) PoolStats() page.PoolStats {
	st := s.pool.Stats()
	st.Retries = s.retries.Load()
	st.GaveUp = s.gaveUp.Load()
	return st
}

// MissesByLevel returns a copy of the per-level real page-read counts
// (index = tree level, 0 = leaves). These are the numbers the amdb
// simulation predicts with its per-level I/O accounting; with the pool
// emptied between queries the two must agree exactly.
func (s *Store) MissesByLevel() []int64 {
	out := make([]int64, len(s.missByLevel))
	for i := range s.missByLevel {
		out[i] = s.missByLevel[i].Load()
	}
	return out
}

// EvictAll empties the buffer pool of unpinned frames — a cold restart,
// used by experiments measuring per-query fault counts.
func (s *Store) EvictAll() {
	s.pool.EvictAll()
}

// ResetStats zeroes the pool counters, the per-level read counts and the
// retry counters.
func (s *Store) ResetStats() {
	s.pool.ResetStats()
	s.retries.Store(0)
	s.gaveUp.Store(0)
	for i := range s.missByLevel {
		s.missByLevel[i].Store(0)
	}
}

// Close releases the underlying file. It is idempotent — a second Close is
// a nil no-op instead of an os.File double-close error, so stacked shutdown
// paths (e.g. a daemon's signal handler and its deferred cleanup) compose.
// The file was only ever read, so there is nothing to write back.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.f.Close()
}
