package pagefile

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/str"
)

// FuzzLoad feeds arbitrary bytes to the loader: it must never panic —
// corrupt files yield errors, and the rare mutation that still parses must
// produce a structurally valid tree (FromRaw re-checks integrity).
func FuzzLoad(f *testing.F) {
	// Seed with a valid index file and a few degenerate inputs.
	rng := rand.New(rand.NewSource(1))
	pts := make([]gist.Point, 400)
	for i := range pts {
		v := make(geom.Vector, 3)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	ext, err := am.New(am.KindXJB, am.Options{XJBX: 4})
	if err != nil {
		f.Fatal(err)
	}
	cfg := gist.Config{Dim: 3, PageSize: 1024}
	probe, err := gist.New(ext, cfg)
	if err != nil {
		f.Fatal(err)
	}
	str.Order(pts, probe.LeafCapacity())
	tree, err := gist.BulkLoad(ext, cfg, pts, 1.0)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.idx")
	if err := Save(path, tree); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range fuzzSeeds(valid) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		loaded, err := Load(p, am.Options{})
		if err != nil {
			return // rejected, fine
		}
		// Accepted: the tree must be internally consistent.
		if err := loaded.CheckIntegrity(); err != nil {
			t.Fatalf("loader accepted an inconsistent tree: %v", err)
		}
	})
}

// fuzzSeeds derives the corpus from one valid file: truncations at the
// magic, mid-header, header/page boundary and mid-pages, single-byte
// corruptions of the version, header CRC region and page payloads, and the
// resealed images of indexSeeds.
func fuzzSeeds(valid []byte) [][]byte {
	flip := func(off int, bit byte) []byte {
		b := append([]byte(nil), valid...)
		if off < len(b) {
			b[off] ^= bit
		}
		return b
	}
	seeds := [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:40],
		valid[:7],                  // magic only
		valid[:1024],               // header page only, no nodes
		flip(7, 0xff),              // version byte
		flip(45, 0x40),             // method name (header CRC must catch it)
		flip(56, 0x01),             // header CRC itself
		flip(1024+2, 0x01),         // first node page: entry count
		flip(1024+300, 0x80),       // first node page: payload
		[]byte("BLOBIDX1 garbage"), // v1 magic: rejected as unknown version
		[]byte("BLOBIDX\x02 short"),
		{},
	}
	for _, seed := range indexSeeds(valid) {
		seeds = append(seeds, seed.data)
	}
	return seeds
}

// Header field offsets of a version 2 index file (see the package comment).
const (
	hdrPageSize = len(magic) + 1
	hdrHeight   = hdrPageSize + 4*2
	hdrNumPages = hdrPageSize + 4*3
	hdrRootPage = hdrPageSize + 4*4
	hdrCRC      = headerFixed - 4
)

// resealIndex recomputes the header CRC and every node page CRC of an index
// image after a test edited it, so the edit reaches the validation behind
// the checksums. Pages are located by the image's own page size; a trailing
// partial page is left alone.
func resealIndex(data []byte) []byte {
	pageSize := int(binary.LittleEndian.Uint32(data[hdrPageSize:]))
	binary.LittleEndian.PutUint32(data[hdrCRC:], 0)
	binary.LittleEndian.PutUint32(data[hdrCRC:], crc32.ChecksumIEEE(data[:pageSize]))
	for off := pageSize; off+pageSize <= len(data); off += pageSize {
		pg := data[off : off+pageSize]
		binary.LittleEndian.PutUint32(pg[4:], 0)
		binary.LittleEndian.PutUint32(pg[4:], crc32.ChecksumIEEE(pg))
	}
	return data
}

// indexSeed is one crafted, CRC-valid index image and the error that must
// refuse it: at open when atOpen, otherwise when a search pins the page.
type indexSeed struct {
	name    string
	data    []byte
	rejects string
	atOpen  bool
}

// indexSeeds derives from one valid image the shapes that only the checks
// behind the checksums can refuse: a header whose height cannot size the
// per-level counters, one claiming more pages than the file holds, and a
// root page at a level the header's height does not have.
func indexSeeds(valid []byte) []indexSeed {
	resealed := func(fn func(b []byte)) []byte {
		b := bytes.Clone(valid)
		fn(b)
		return resealIndex(b)
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(valid[off:]) }
	put32 := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	numPages, pageSize := u32(hdrNumPages), int(u32(hdrPageSize))
	rootLevel := (1 + int(u32(hdrRootPage))) * pageSize
	return []indexSeed{
		{"height 0", resealed(put32(hdrHeight, 0)), "corrupt header", true},
		{"height beyond numPages", resealed(put32(hdrHeight, numPages+1)), "corrupt header", true},
		{"pages beyond the file", resealed(func(b []byte) {
			put32(hdrNumPages, 1<<20)(b)
			put32(hdrHeight, 1<<20)(b)
		}), "header claims 1048576 pages", true},
		{"root at level = height", resealed(func(b []byte) {
			binary.LittleEndian.PutUint16(b[rootLevel:], uint16(u32(hdrHeight)))
		}), "in a tree of height", false},
	}
}

// pagedSeedImage is the valid index image FuzzOpenPaged and
// TestOpenPagedSeeds derive their corpus from: 300 2-d points under the
// R-tree on 1 KiB pages.
func pagedSeedImage(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(2))
	pts := make([]gist.Point, 300)
	for i := range pts {
		v := make(geom.Vector, 2)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	ext, err := am.New(am.KindRTree, am.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := gist.Config{Dim: 2, PageSize: 1024}
	probe, err := gist.New(ext, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	str.Order(pts, probe.LeafCapacity())
	tree, err := gist.BulkLoad(ext, cfg, pts, 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "seed.idx")
	if err := Save(path, tree); err != nil {
		tb.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return valid
}

// TestOpenPagedSeeds checks that every resealed image gets past the
// checksums and is refused by the check it was built to reach: the header
// seeds at open, the page seed as a search error. Load refuses them all at
// load time.
func TestOpenPagedSeeds(t *testing.T) {
	for _, seed := range indexSeeds(pagedSeedImage(t)) {
		p := filepath.Join(t.TempDir(), "seed.idx")
		if err := os.WriteFile(p, seed.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p, am.Options{}); err == nil || errors.Is(err, ErrChecksum) {
			t.Errorf("%s: Load = %v, want a check behind the checksums", seed.name, err)
		}
		paged, store, err := OpenPaged(p, am.Options{}, 4)
		if seed.atOpen {
			if err == nil || !strings.Contains(err.Error(), seed.rejects) {
				t.Errorf("%s: OpenPaged = %v, want %q", seed.name, err, seed.rejects)
			}
			if err == nil {
				store.Close()
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: OpenPaged = %v, want it to open", seed.name, err)
			continue
		}
		res, err := nn.SearchCtxInto(context.Background(), paged, geom.Vector{50, 50}, 10, nil, nil)
		if err == nil || !strings.Contains(err.Error(), seed.rejects) {
			t.Errorf("%s: search = (%d results, %v), want %q", seed.name, len(res), err, seed.rejects)
		}
		if st := store.PoolStats(); st.Pinned != 0 {
			t.Errorf("%s: %d pages left pinned", seed.name, st.Pinned)
		}
		store.Close()
	}
}

// FuzzOpenPaged feeds the same corpus to the demand-paged open path: the
// header is validated eagerly, node pages lazily at pin time, and neither
// stage may panic. Queries over an accepted file must either succeed or
// fail cleanly when a pinned page turns out corrupt or missing.
func FuzzOpenPaged(f *testing.F) {
	for _, seed := range fuzzSeeds(pagedSeedImage(f)) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		paged, store, err := OpenPaged(p, am.Options{}, 4)
		if err != nil {
			return // rejected at the header, fine
		}
		defer store.Close()
		// Drive a query through the lazy pin path; corrupt pages surface as
		// pin errors, never panics.
		_, _ = nn.SearchCtxInto(context.Background(), paged, geom.Vector{50, 50}, 10, nil, nil)
		st := store.PoolStats()
		if st.Pinned != 0 {
			t.Fatalf("query left %d pages pinned", st.Pinned)
		}
	})
}

// resealSidecar recomputes the meta and header CRCs of a sidecar image after
// a test edited it, so the edit reaches the validation behind the checksums.
// The meta section is located by the image's own (possibly edited) geometry;
// where that points outside the image the meta CRC is left alone.
func resealSidecar(data []byte) []byte {
	u32 := func(field int) int {
		return int(binary.LittleEndian.Uint32(data[len(sideMagic)+1+4*field:]))
	}
	pageSize, fullDim, indexDim := u32(0), u32(1), u32(2)
	count := int(binary.LittleEndian.Uint64(data[len(sideMagic)+1+4*6:]))
	if pageSize < sideHeaderFixed || pageSize > len(data) {
		return data
	}
	crcOff := sideHeaderFixed - 4
	if metaLen := 8 * (fullDim + indexDim*fullDim + count); metaLen >= 0 && metaLen <= len(data)-pageSize {
		binary.LittleEndian.PutUint32(data[crcOff-4:], crc32.ChecksumIEEE(data[pageSize:pageSize+metaLen]))
	}
	binary.LittleEndian.PutUint32(data[crcOff:], 0)
	binary.LittleEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:pageSize]))
	return data
}

// sidecarSeed is one crafted sidecar image and how the store must treat it:
// reject it at open with an error containing rejects, or (rejects == "")
// open it.
type sidecarSeed struct {
	name    string
	data    []byte
	rejects string
}

// sidecarSeeds writes a small valid sidecar and derives the fuzz corpus from
// it: truncations, single-byte damage each checksum must catch, and images
// resealed after an edit so that CRC-valid but inconsistent shapes and
// directories reach the validation behind the checksums.
func sidecarSeeds(t testing.TB) []sidecarSeed {
	const (
		n        = 60
		fullDim  = 6
		indexDim = 2
		pageSize = 256
	)
	rng := rand.New(rand.NewSource(3))
	mean := make([]float64, fullDim)
	comps := make([][]float64, indexDim)
	for i := range comps {
		comps[i] = make([]float64, fullDim)
		for d := range comps[i] {
			comps[i][d] = rng.NormFloat64()
		}
	}
	rids := make([]int64, n)
	feats := make([][]float64, n)
	for i := range feats {
		rids[i] = int64(i*3) - 20
		feats[i] = make([]float64, fullDim)
		for d := range feats[i] {
			feats[i][d] = rng.Float64()
		}
	}
	path := filepath.Join(t.TempDir(), "seed.side")
	if err := SaveSidecar(path, pageSize, mean, comps, rids, feats); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := func(fn func(b []byte)) []byte {
		b := bytes.Clone(valid)
		fn(b)
		return b
	}
	resealed := func(fn func(b []byte)) []byte { return resealSidecar(damage(fn)) }
	field := func(i int) int { return len(sideMagic) + 1 + 4*i } // pageSize, fullDim, indexDim, perPage, dataPages, metaPages
	countOff := field(6)
	dirOff := pageSize + 8*(fullDim+indexDim*fullDim)
	put32 := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	putCount := func(v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[countOff:], v) }
	}
	return []sidecarSeed{
		{"valid", valid, ""},
		{"half the file", valid[:len(valid)/2], "corrupt sidecar header"},
		{"cut in the meta blob", valid[:pageSize+40], "corrupt sidecar header"},
		{"header page only", valid[:pageSize], "corrupt sidecar header"},
		{"cut in the header", valid[:sideHeaderFixed-2], "short sidecar header"},
		{"magic only", valid[:len(sideMagic)], "short sidecar header"},
		{"empty", nil, "short sidecar header"},
		{"version 1", damage(func(b []byte) { b[len(sideMagic)] = 1 }), "sidecar version 1"},
		{"header bit flip", damage(func(b []byte) { b[field(2)] ^= 0x04 }), "checksum mismatch: sidecar header"},
		{"directory bit flip", damage(func(b []byte) { b[dirOff+3] ^= 0x10 }), "checksum mismatch: sidecar meta"},
		{"data page bit flip", damage(func(b []byte) { b[len(b)-pageSize+9] ^= 1 }), ""}, // caught at pin time
		{"count short of its pages", resealed(putCount(n - 7)), "corrupt sidecar header"},
		{"count beyond 32-bit slots", resealed(putCount(1 << 40)), "corrupt sidecar header"},
		{"data pages beyond the file", resealed(put32(field(4), 1<<30)), "corrupt sidecar header"},
		{"meta overflows its pages", resealed(put32(field(5), 0)), "overflows 0 meta pages"},
		{"perPage disagrees with the geometry", resealed(put32(field(3), 2)), "corrupt sidecar header"},
		{"indexDim huge", resealed(put32(field(2), 1<<20)), "overflows"},
		{"page size huge", resealed(put32(field(0), 1<<31)), "corrupt sidecar header"},
		{"rid listed twice", resealed(func(b []byte) { copy(b[dirOff:dirOff+8], b[dirOff+8:dirOff+16]) }), "in slots 0 and 1"},
		{"slots swapped", resealed(func(b []byte) { // opens; the pages then disagree with the directory
			var tmp [8]byte
			copy(tmp[:], b[dirOff:])
			copy(b[dirOff:dirOff+8], b[dirOff+8*10:])
			copy(b[dirOff+8*10:dirOff+8*11], tmp[:])
		}), ""},
	}
}

// TestOpenSidecarSeeds checks that every crafted image is refused by the
// check it was built to reach — in particular that the resealed ones get past
// the checksums — so the fuzz corpus keeps covering what it claims to.
func TestOpenSidecarSeeds(t *testing.T) {
	for _, seed := range sidecarSeeds(t) {
		p := filepath.Join(t.TempDir(), "seed.side")
		if err := os.WriteFile(p, seed.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSidecar(p, 2)
		switch {
		case err == nil && seed.rejects != "":
			t.Errorf("%s: opened, want an error containing %q", seed.name, seed.rejects)
		case err != nil && (seed.rejects == "" || !strings.Contains(err.Error(), seed.rejects)):
			t.Errorf("%s: OpenSidecar = %v, want %q", seed.name, err, seed.rejects)
		}
		if s != nil {
			s.Close()
		}
	}
}

// FuzzOpenSidecar feeds arbitrary bytes to the sidecar opener. The header,
// the meta blob and the RID directory are validated eagerly and data pages
// lazily at pin time; no stage may panic or size an allocation from an
// unchecked field. A file that opens must serve every directory entry or
// fail cleanly, and never leave a page pinned.
func FuzzOpenSidecar(f *testing.F) {
	for _, seed := range sidecarSeeds(f) {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.side")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := OpenSidecar(p, 2)
		if err != nil {
			return // rejected at open, fine
		}
		defer s.Close()
		if s.Len() != len(s.rids) || len(s.slotOf) != len(s.rids) {
			t.Fatalf("opened with %d records, %d directory entries, %d lookups", s.Len(), len(s.rids), len(s.slotOf))
		}
		var buf []float64
		slots := make([]uint32, 0, len(s.rids))
		for slot, rid := range s.rids {
			if got, ok := s.Slot(rid); !ok || int(got) != slot {
				t.Fatalf("Slot(%d) = %d, %v; the directory has it in slot %d", rid, got, ok, slot)
			}
			if slot < 256 {
				slots = append(slots, uint32(slot))
				if got, err := s.Feature(rid, buf[:0]); err == nil && len(got) != s.FullDim() {
					t.Fatalf("Feature(%d) returned %d coordinates, want %d", rid, len(got), s.FullDim())
				}
			}
		}
		s.Visit(slots, func(_ int, feat []float64) {
			if len(feat) != s.FullDim() {
				t.Fatalf("Visit handed out a %d-coordinate view, want %d", len(feat), s.FullDim())
			}
		})
		if st := s.PoolStats(); st.Pinned != 0 || st.Resident > st.Capacity {
			t.Fatalf("lookups left the pool at %+v", st)
		}
	})
}
