// Package pagefile persists a GiST to a page-structured file: one fixed
// -size page per tree node, bounding predicates serialized through the
// access methods' PredicateCodec in exactly the float-word layout the
// paper's Table 3 accounts for. The format makes the paper's fanout
// arithmetic concrete — a node's entries must genuinely fit its page — and
// lets tools (cmd/amdb) analyze previously built indexes without
// rebuilding.
//
// Layout, format version 2 (little endian):
//
//	header page:  magic "BLOBIDX", version byte, pageSize, dim, height,
//	              numPages, rootPage, xjbX, count, method name,
//	              header CRC32 (computed with the CRC field zeroed)
//	node pages:   level uint16, numEntries uint16, page CRC32 (bytes 4:8,
//	              computed with those bytes zeroed); then entries at byte 8:
//	              leaf:  key (dim float64s) + RID int64
//	              inner: predicate (BPWords float64s) + child page uint64
//
// The child page numbers stored on inner pages are file page indices (page
// 0 is the header, node page p lives at file offset (1+p)·pageSize), and
// they double as the page ids a demand-paged Store (OpenPaged) serves to
// the tree — an opened index answers queries by pinning exactly the pages
// a traversal touches.
//
// Version 1 files (magic "BLOBIDX1", no checksums) are not readable; they
// fail with ErrVersion since their eighth byte '1' is not a known version.
package pagefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/page"
)

const (
	magic   = "BLOBIDX"
	version = 2
)

// headerFixed is the meaningful prefix of the header page: magic, version,
// six uint32 fields, the uint64 count, the 16-byte method name, and the
// header CRC32. The rest of the header page is zero padding.
const headerFixed = len(magic) + 1 + 4*6 + 8 + 16 + 4

// Sentinel errors for the distinguishable failure classes. Loaders and the
// paged store wrap them with context; test with errors.Is. The classes
// matter operationally: a transient error is worth retrying (the store's
// Pin does, with backoff) and maps to 503 at the serving layer, while a
// checksum mismatch means the bytes on disk are wrong — retrying cannot
// help, and serving maps it to 500.
var (
	// ErrBadMagic marks a file that is not a blobindex pagefile at all.
	ErrBadMagic = errors.New("pagefile: bad magic")
	// ErrVersion marks a pagefile of an unsupported format version.
	ErrVersion = errors.New("pagefile: unsupported format version")
	// ErrChecksum marks a header or node page whose CRC32 does not match
	// its contents.
	ErrChecksum = errors.New("pagefile: checksum mismatch")
	// ErrTransient marks a page read that failed for a reason a retry may
	// clear (an injected fault, EINTR/EAGAIN from the OS). Store.Pin
	// retries these with jittered backoff before giving up.
	ErrTransient = errors.New("pagefile: transient read failure")
)

// header carries the decoded header-page fields.
type header struct {
	pageSize int
	dim      int
	height   int
	numPages int
	rootPage int
	xjbX     int
	count    int
	name     string
}

// readHeader reads and validates the header page from r, which must be
// positioned at the start of the file. On return r is positioned at the
// first node page.
func readHeader(r io.Reader) (header, error) {
	var h header
	fixed := make([]byte, headerFixed)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return h, fmt.Errorf("pagefile: short header: %w", err)
	}
	if string(fixed[:len(magic)]) != magic {
		return h, ErrBadMagic
	}
	if v := fixed[len(magic)]; v != version {
		return h, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, version)
	}
	off := len(magic) + 1
	get32 := func() int {
		v := binary.LittleEndian.Uint32(fixed[off:])
		off += 4
		return int(v)
	}
	h.pageSize = get32()
	h.dim = get32()
	h.height = get32()
	h.numPages = get32()
	h.rootPage = get32()
	h.xjbX = get32()
	h.count = int(binary.LittleEndian.Uint64(fixed[off:]))
	off += 8
	h.name = trimZero(fixed[off : off+16])
	off += 16
	storedCRC := binary.LittleEndian.Uint32(fixed[off:])
	if h.pageSize < 256 || h.dim < 1 || h.numPages < 1 || h.rootPage >= h.numPages ||
		h.height < 1 || h.height > h.numPages {
		return h, fmt.Errorf("pagefile: corrupt header (page=%d dim=%d height=%d pages=%d root=%d)",
			h.pageSize, h.dim, h.height, h.numPages, h.rootPage)
	}
	// The CRC covers the whole header page with the CRC field zeroed.
	rest := make([]byte, h.pageSize-headerFixed)
	if _, err := io.ReadFull(r, rest); err != nil {
		return h, fmt.Errorf("pagefile: short header page: %w", err)
	}
	binary.LittleEndian.PutUint32(fixed[off:], 0)
	crc := crc32.ChecksumIEEE(fixed)
	crc = crc32.Update(crc, crc32.IEEETable, rest)
	if crc != storedCRC {
		return h, fmt.Errorf("%w: header", ErrChecksum)
	}
	return h, nil
}

// checkFileSize refuses a header that claims more pages than f holds.
// readHeader bounds the height by numPages, and both openers size
// allocations from them, so numPages is bounded by the file in turn.
func checkFileSize(f *os.File, h header) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < int64(1+h.numPages)*int64(h.pageSize) {
		return fmt.Errorf("pagefile: header claims %d pages, file holds %d bytes", h.numPages, fi.Size())
	}
	return nil
}

// extFor reconstructs the access method an index was built with.
func extFor(h header, opts am.Options) (gist.Extension, am.PredicateCodec, error) {
	if h.xjbX > 0 {
		opts.XJBX = h.xjbX
	}
	ext, err := am.New(am.Kind(h.name), opts)
	if err != nil {
		return nil, nil, err
	}
	codec, ok := ext.(am.PredicateCodec)
	if !ok {
		return nil, nil, fmt.Errorf("pagefile: access method %q has no predicate codec", h.name)
	}
	return ext, codec, nil
}

// decodeNodePage verifies the CRC of one node page and decodes its payload.
// Leaf pages yield flatKeys/rids; inner pages yield preds/children. p is the
// page's file index, used in error messages and bounds checks.
func decodeNodePage(buf []byte, p int, h header, bpWords int, codec am.PredicateCodec) (
	level int, flatKeys []float64, rids []int64, preds []gist.Predicate, children []page.PageID, err error) {
	storedCRC := binary.LittleEndian.Uint32(buf[4:])
	binary.LittleEndian.PutUint32(buf[4:], 0)
	if crc32.ChecksumIEEE(buf) != storedCRC {
		return 0, nil, nil, nil, nil, fmt.Errorf("%w: page %d", ErrChecksum, p)
	}
	level = int(binary.LittleEndian.Uint16(buf[0:]))
	entries := int(binary.LittleEndian.Uint16(buf[2:]))
	if level >= h.height {
		return 0, nil, nil, nil, nil, fmt.Errorf("pagefile: page %d at level %d in a tree of height %d",
			p, level, h.height)
	}
	pos := 8
	if level == 0 {
		if pos+entries*(h.dim*8+8) > h.pageSize {
			return 0, nil, nil, nil, nil, fmt.Errorf("pagefile: leaf page %d overflows", p)
		}
		flatKeys = make([]float64, 0, entries*h.dim)
		rids = make([]int64, 0, entries)
		for i := 0; i < entries; i++ {
			for d := 0; d < h.dim; d++ {
				flatKeys = append(flatKeys, math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
				pos += 8
			}
			rids = append(rids, int64(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		}
		return level, flatKeys, rids, nil, nil, nil
	}
	if pos+entries*(bpWords*8+8) > h.pageSize {
		return 0, nil, nil, nil, nil, fmt.Errorf("pagefile: inner page %d overflows", p)
	}
	words := make([]float64, bpWords)
	preds = make([]gist.Predicate, 0, entries)
	children = make([]page.PageID, 0, entries)
	for i := 0; i < entries; i++ {
		for wi := 0; wi < bpWords; wi++ {
			words[wi] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
		}
		pred, err := codec.DecodeBP(words, h.dim)
		if err != nil {
			return 0, nil, nil, nil, nil, fmt.Errorf("pagefile: page %d entry %d: %w", p, i, err)
		}
		child := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		if child >= uint64(h.numPages) {
			return 0, nil, nil, nil, nil, fmt.Errorf("pagefile: page %d points to page %d of %d",
				p, child, h.numPages)
		}
		preds = append(preds, pred)
		children = append(children, page.PageID(child))
	}
	return level, nil, nil, preds, children, nil
}

// MinPageSize returns the smallest page size whose node pages hold two of
// ext's entries at dim dimensions, inner or leaf: the 8-byte page header
// plus two entries. page.Capacity clamps an in-memory node's fan-out to 2
// whatever the page size, so a tree built at a smaller size cannot be saved.
func MinPageSize(ext gist.Extension, dim int) int {
	return 8 + 2*page.EntrySize(max(ext.BPWords(dim), dim))
}

// Save writes the tree to path in format version 2. The tree's extension
// must implement am.PredicateCodec (every access method in internal/am
// does). Saving walks the tree through its node store, so an opened
// (read-only) index can be copied out the same way an in-memory one is.
//
// Save is crash-atomic: the pages are written to path+".tmp", flushed and
// fsynced, and only then renamed over path (followed by an fsync of the
// directory so the rename itself is durable). A crash or error at any
// point before the rename leaves the previous index at path untouched;
// flush, sync and close failures are returned to the caller instead of
// being swallowed, and the temp file is removed on every error path.
func Save(path string, t *gist.Tree) error {
	codec, ok := t.Ext().(am.PredicateCodec)
	if !ok {
		return fmt.Errorf("pagefile: access method %q has no predicate codec", t.Ext().Name())
	}

	// Assign sequential file page numbers in pre-order. The walk keeps a
	// reference to every node, so even over an evicting store the collected
	// pointers stay valid for the write pass below.
	var nodes []*gist.Node
	index := make(map[page.PageID]uint64)
	if err := t.Walk(func(n *gist.Node, _ gist.Predicate) {
		index[n.ID()] = uint64(len(nodes))
		nodes = append(nodes, n)
	}); err != nil {
		return err
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writePages(f, t, codec, nodes, index); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("pagefile: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pagefile: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename survives a crash.
// Filesystems that cannot sync directories (returning EINVAL or ENOTSUP)
// are tolerated — the rename is still atomic, just not yet durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// writePages serializes the header and every node page to f through a
// buffered writer, returning the first write, encode or flush error.
func writePages(f *os.File, t *gist.Tree, codec am.PredicateCodec, nodes []*gist.Node, index map[page.PageID]uint64) error {
	pageSize := t.PageSize()
	dim := t.Dim()
	w := bufio.NewWriterSize(f, 1<<20)

	// Header page.
	hdr := make([]byte, pageSize)
	copy(hdr, magic)
	hdr[len(magic)] = version
	off := len(magic) + 1
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(hdr[off:], v)
		off += 4
	}
	put32(uint32(pageSize))
	put32(uint32(dim))
	put32(uint32(t.Height()))
	put32(uint32(len(nodes)))
	put32(uint32(index[t.RootID()]))
	x := 0
	if xe, ok := t.Ext().(interface{ X() int }); ok {
		x = xe.X()
	}
	put32(uint32(x))
	binary.LittleEndian.PutUint64(hdr[off:], uint64(t.Len()))
	off += 8
	name := t.Ext().Name()
	if len(name) > 16 {
		return fmt.Errorf("pagefile: method name %q too long", name)
	}
	copy(hdr[off:off+16], name)
	off += 16
	// CRC over the whole page with the CRC field (still zero) in place.
	binary.LittleEndian.PutUint32(hdr[off:], crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	// Node pages.
	buf := make([]byte, pageSize)
	var words []float64
	for _, n := range nodes {
		for i := range buf {
			buf[i] = 0
		}
		binary.LittleEndian.PutUint16(buf[0:], uint16(n.Level()))
		binary.LittleEndian.PutUint16(buf[2:], uint16(n.NumEntries()))
		pos := 8
		fit := func(need int) error {
			if pos+need > pageSize {
				return fmt.Errorf("pagefile: node %d overflows its page", n.ID())
			}
			return nil
		}
		if n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				if err := fit(dim*8 + 8); err != nil {
					return err
				}
				for _, c := range n.LeafKey(i) {
					binary.LittleEndian.PutUint64(buf[pos:], math.Float64bits(c))
					pos += 8
				}
				binary.LittleEndian.PutUint64(buf[pos:], uint64(n.LeafRID(i)))
				pos += 8
			}
		} else {
			bpWords := t.Ext().BPWords(dim)
			for i := 0; i < n.NumEntries(); i++ {
				if err := fit(bpWords*8 + 8); err != nil {
					return err
				}
				words = codec.EncodeBP(words[:0], n.ChildPred(i), dim)
				if len(words) != bpWords {
					return fmt.Errorf("pagefile: %s encoded %d words, BPWords says %d",
						t.Ext().Name(), len(words), bpWords)
				}
				for _, wv := range words {
					binary.LittleEndian.PutUint64(buf[pos:], math.Float64bits(wv))
					pos += 8
				}
				binary.LittleEndian.PutUint64(buf[pos:], index[n.ChildID(i)])
				pos += 8
			}
		}
		// Page CRC over the page with bytes 4:8 (still zero) in place.
		binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Load reads a whole tree saved by Save into memory, reconstructing the
// access method from the stored name. opts supplies the parameters that are
// not part of the on-disk format (aMAP sampling, bite restarts) for
// subsequent inserts. For serving queries over a large index without
// materializing it, see OpenPaged.
func Load(path string, opts am.Options) (*gist.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)

	h, err := readHeader(r)
	if err == nil {
		err = checkFileSize(f, h)
	}
	if err != nil {
		return nil, err
	}
	ext, codec, err := extFor(h, opts)
	if err != nil {
		return nil, err
	}
	bpWords := ext.BPWords(h.dim)

	type pendingNode struct {
		raw      *gist.RawNode
		children []page.PageID
	}
	pend := make([]pendingNode, h.numPages)
	buf := make([]byte, h.pageSize)
	for p := 0; p < h.numPages; p++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("pagefile: short page %d: %w", p, err)
		}
		level, flat, rids, preds, children, err := decodeNodePage(buf, p, h, bpWords, codec)
		if err != nil {
			return nil, err
		}
		rn := &gist.RawNode{Level: level, RIDs: rids, Preds: preds}
		for i := range rids {
			rn.Keys = append(rn.Keys, geom.Vector(flat[i*h.dim:(i+1)*h.dim]))
		}
		pend[p] = pendingNode{raw: rn, children: children}
	}
	// Link children.
	for p := range pend {
		for _, c := range pend[p].children {
			pend[p].raw.Children = append(pend[p].raw.Children, pend[c].raw)
		}
	}
	root := pend[h.rootPage].raw
	if root.Level+1 != h.height {
		return nil, fmt.Errorf("pagefile: root level %d does not match height %d",
			root.Level, h.height)
	}

	tree, err := gist.FromRaw(ext, gist.Config{Dim: h.dim, PageSize: h.pageSize}, root)
	if err != nil {
		return nil, err
	}
	if tree.Len() != h.count {
		return nil, fmt.Errorf("pagefile: loaded %d points, header says %d", tree.Len(), h.count)
	}
	return tree, nil
}

func trimZero(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
