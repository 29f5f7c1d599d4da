package pagefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"blobindex/internal/faultio"
	"blobindex/internal/geom"
	"blobindex/internal/page"
	"blobindex/internal/svd"
)

// sidecarFixture writes a sidecar of n records with fullDim features and an
// indexDim projection fitted over the data, returning the path, the features
// and the fitted PCA.
func sidecarFixture(t *testing.T, n, fullDim, indexDim, pageSize int) (string, []int64, [][]float64, *svd.PCA) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	feats := make([][]float64, n)
	vecs := make([]geom.Vector, n)
	rids := make([]int64, n)
	for i := range feats {
		f := make([]float64, fullDim)
		for d := range f {
			f[d] = rng.Float64()
		}
		feats[i] = f
		vecs[i] = f
		// Shuffled, sparse, partly negative RIDs: nothing about the layout may
		// depend on RID order or density.
		rids[i] = int64(i*7) - 300
	}
	rng.Shuffle(n, func(a, b int) {
		feats[a], feats[b] = feats[b], feats[a]
		rids[a], rids[b] = rids[b], rids[a]
	})
	pca, err := svd.Fit(vecs, indexDim)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "side.idx")
	if err := SaveSidecar(path, pageSize, pca.Mean, pca.Components, rids, feats); err != nil {
		t.Fatal(err)
	}
	return path, rids, feats, pca
}

func TestSidecarRoundTrip(t *testing.T) {
	const (
		n        = 137
		fullDim  = 31
		indexDim = 4
		pageSize = 1024
	)
	path, rids, feats, pca := sidecarFixture(t, n, fullDim, indexDim, pageSize)
	s, err := OpenSidecar(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.FullDim() != fullDim || s.IndexDim() != indexDim || s.Len() != n {
		t.Fatalf("shape = (%d, %d, %d), want (%d, %d, %d)",
			s.FullDim(), s.IndexDim(), s.Len(), fullDim, indexDim, n)
	}

	// Every record round-trips bit for bit under its (sparse) RID: the
	// fixture shuffles (rid, feature) pairs together, so rids[i] owns
	// feats[i] regardless of on-disk order.
	var buf []float64
	slots := make(map[uint32]bool, n)
	for i, f := range feats {
		rid := rids[i]
		got, err := s.Feature(rid, buf[:0])
		if err != nil {
			t.Fatalf("Feature(%d): %v", rid, err)
		}
		buf = got
		if len(got) != fullDim {
			t.Fatalf("Feature(%d) has %d coordinates, want %d", rid, len(got), fullDim)
		}
		for d := range f {
			if math.Float64bits(got[d]) != math.Float64bits(f[d]) {
				t.Fatalf("Feature(%d)[%d] = %v, want %v", rid, d, got[d], f[d])
			}
		}
		slot, ok := s.Slot(rid)
		if !ok || int(slot) >= n || slots[slot] {
			t.Fatalf("Slot(%d) = %d, %v: not a fresh slot in [0,%d)", rid, slot, ok, n)
		}
		slots[slot] = true
	}

	// Unknown RIDs (holes in the sparse space and out-of-range ids) miss.
	for _, rid := range []int64{-301, -299, 3, int64(n*7) + 1} {
		if _, err := s.Feature(rid, nil); !errors.Is(err, ErrRIDNotFound) {
			t.Fatalf("Feature(%d) = %v, want ErrRIDNotFound", rid, err)
		}
		if _, ok := s.Slot(rid); ok {
			t.Fatalf("Slot(%d) found a record", rid)
		}
	}

	// The stored projection reproduces svd.PCA.Project bit for bit.
	for _, f := range feats[:16] {
		want := pca.Project(f)
		got := s.Project(f, nil)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("Project[%d] = %v, want %v", d, got[d], want[d])
			}
		}
	}
}

func TestSidecarRejectsDuplicateRIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.idx")
	feats := [][]float64{{1, 2}, {3, 4}}
	err := SaveSidecar(path, 512, []float64{0, 0}, nil, []int64{5, 5}, feats)
	if err == nil {
		t.Fatal("SaveSidecar accepted duplicate RIDs")
	}

	// The same call with distinct RIDs is a valid sidecar with no projection
	// to cluster by: records fall back to RID order.
	if err := SaveSidecar(path, 512, []float64{0, 0}, nil, []int64{5, 2}, feats); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSidecar(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.Feature(2, nil); err != nil || got[0] != 3 || got[1] != 4 {
		t.Fatalf("Feature(2) = %v, %v, want [3 4]", got, err)
	}
	if slot, _ := s.Slot(2); slot != 0 {
		t.Fatalf("rid 2 sits in slot %d, want 0", slot)
	}
}

func TestSidecarChecksum(t *testing.T) {
	path, _, _, _ := sidecarFixture(t, 40, 16, 3, 512)

	// Flip one byte in the first data page; the read must fail ErrChecksum.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSidecar(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	metaPages := s.h.metaPages
	s.Close()

	corrupted := append([]byte(nil), data...)
	corrupted[(1+metaPages)*512+20] ^= 0xff
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = OpenSidecar(path, 4)
	if err != nil {
		t.Fatal(err) // header and meta are intact; open succeeds
	}
	defer s.Close()
	if _, err := s.Feature(s.rids[0], nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Feature over corrupt page = %v, want ErrChecksum", err)
	}
	// The frame the failed load read into went back to the free list, not
	// into the pool.
	if st := s.PoolStats(); st.Resident != 0 || s.free == nil {
		t.Fatalf("failed load left %d resident frames, free list empty = %v", st.Resident, s.free == nil)
	}

	// Corrupt the header: open itself must fail.
	corrupted = append([]byte(nil), data...)
	corrupted[12] ^= 0xff
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSidecar(path, 4); err == nil {
		t.Fatal("OpenSidecar accepted a corrupt header")
	}
}

func TestSidecarTransientRetry(t *testing.T) {
	path, _, _, _ := sidecarFixture(t, 40, 16, 3, 512)

	// Every page read fails transiently twice, then succeeds: lookups must
	// absorb the blips invisibly and count the retries.
	var inj *faultio.Injector
	s, err := OpenSidecarIO(path, 4, func(f faultio.File) faultio.File {
		inj = faultio.Wrap(f, faultio.Config{
			Seed:           7,
			PageSize:       512,
			Rates:          faultio.Rates{Transient: 1.0},
			MaxConsecutive: 2,
		})
		return inj
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Feature(-300, nil); err != nil {
		t.Fatalf("Feature under transient faults: %v", err)
	}
	st := s.PoolStats()
	if st.Retries == 0 {
		t.Fatalf("expected retries to be counted, got %+v", st)
	}
	if st.GaveUp != 0 {
		t.Fatalf("bounded faults must not exhaust the budget: %+v", st)
	}

	// Warm lookups never touch the injured file again.
	before := inj.Stats()
	if _, err := s.Feature(-300, nil); err != nil {
		t.Fatal(err)
	}
	if after := inj.Stats(); after.Reads != before.Reads {
		t.Fatalf("pool hit still read the file: %+v -> %+v", before, after)
	}
}

func TestSidecarGivesUpOnPersistentFaults(t *testing.T) {
	path, _, _, _ := sidecarFixture(t, 40, 16, 3, 512)
	s, err := OpenSidecarIO(path, 4, func(f faultio.File) faultio.File {
		return faultio.Wrap(f, faultio.Config{
			Seed:     7,
			PageSize: 512,
			Rates:    faultio.Rates{Transient: 1.0}, // never clears
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Feature(-300, nil); !errors.Is(err, ErrTransient) {
		t.Fatalf("Feature = %v, want ErrTransient after budget", err)
	}
	if st := s.PoolStats(); st.GaveUp != 1 || st.Resident != 0 {
		t.Fatalf("GaveUp = %d, Resident = %d, want 1 and 0 (%+v)", st.GaveUp, st.Resident, st)
	}
}

// TestSidecarRejectsV1 pins the format break: a version-1 file (RID-ordered
// pages, page directory in the meta section) is refused at open with
// ErrVersion and a pointer at the fix, not misread.
func TestSidecarRejectsV1(t *testing.T) {
	path, _, _, _ := sidecarFixture(t, 40, 16, 3, 512)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(sideMagic)] = 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSidecar(path, 4)
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "datagen -side") {
		t.Fatalf("OpenSidecar(v1) = %v, want ErrVersion naming `datagen -side`", err)
	}
}

// TestSidecarVisitPinsEachPageOnce checks the visit contract on a clustered
// workload: over ascending slots every distinct page costs exactly one pin,
// the views handed to fn are the stored features, and a pool far smaller than
// the visited page set neither overflows nor leaks a pin.
func TestSidecarVisitPinsEachPageOnce(t *testing.T) {
	const (
		n        = 500
		fullDim  = 20
		pageSize = 1024
	)
	path, rids, feats, _ := sidecarFixture(t, n, fullDim, 3, pageSize)
	s, err := OpenSidecar(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	byRID := make(map[int64][]float64, n)
	for i, rid := range rids {
		byRID[rid] = feats[i]
	}
	perPage := uint32(SidecarRecordsPerPage(pageSize, fullDim))

	// Every third record, ascending: runs of one or two slots per page.
	var slots []uint32
	pagesWant := map[uint32]bool{}
	for slot := uint32(0); slot < n; slot += 3 {
		slots = append(slots, slot)
		pagesWant[slot/perPage] = true
	}
	before := s.PoolStats()
	seen := 0
	pages, err := s.Visit(slots, func(i int, feat []float64) {
		if i != seen {
			t.Errorf("fn called with i = %d, want %d", i, seen)
		}
		seen++
		want := byRID[s.rids[slots[i]]]
		if len(feat) != fullDim || cap(feat) != fullDim {
			t.Fatalf("view of slot %d has len %d cap %d, want %d", slots[i], len(feat), cap(feat), fullDim)
		}
		for d := range want {
			if math.Float64bits(feat[d]) != math.Float64bits(want[d]) {
				t.Fatalf("slot %d coordinate %d = %v, want %v", slots[i], d, feat[d], want[d])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	after := s.PoolStats()
	if seen != len(slots) {
		t.Fatalf("fn ran for %d of %d slots", seen, len(slots))
	}
	if pins := (after.Hits + after.Misses) - (before.Hits + before.Misses); pages != len(pagesWant) || int(pins) != pages {
		t.Fatalf("Visit reported %d pages over %d pins, want %d distinct pages", pages, pins, len(pagesWant))
	}
	if after.Pinned != 0 || after.Resident > after.Capacity {
		t.Fatalf("visit left the pool at %+v", after)
	}

	// A slot past the last record is refused — also on the (short) last page,
	// whose earlier slots are still visited.
	last := uint32(n - 1)
	seen = 0
	if _, err := s.Visit([]uint32{last, last + 1}, func(int, []float64) { seen++ }); err == nil || seen != 1 {
		t.Fatalf("Visit past the last slot: err = %v after %d records, want an error after 1", err, seen)
	}
	if st := s.PoolStats(); st.Pinned != 0 {
		t.Fatalf("failed visit left %d pages pinned", st.Pinned)
	}
}

// TestSidecarPageMustMatchDirectory covers the load-time cross-checks a
// CRC-valid page can still fail: a record count or a RID that disagrees with
// the directory means the page is not the one the slot arithmetic assumes.
func TestSidecarPageMustMatchDirectory(t *testing.T) {
	const pageSize = 512
	path, _, _, _ := sidecarFixture(t, 40, 16, 3, pageSize)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSidecar(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	page0 := (1 + s.h.metaPages) * pageSize
	rid0 := s.rids[0]
	s.Close()

	for name, mutate := range map[string]func(pg []byte){
		"record count": func(pg []byte) { binary.LittleEndian.PutUint16(pg, binary.LittleEndian.Uint16(pg)-1) },
		"rid":          func(pg []byte) { binary.LittleEndian.PutUint64(pg[8:], uint64(rid0+1)) },
	} {
		data := bytes.Clone(clean)
		pg := data[page0 : page0+pageSize]
		mutate(pg)
		binary.LittleEndian.PutUint32(pg[4:], 0)
		binary.LittleEndian.PutUint32(pg[4:], crc32.ChecksumIEEE(pg))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSidecar(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Feature(rid0, nil)
		if err == nil || errors.Is(err, ErrChecksum) || errors.Is(err, ErrTransient) {
			t.Errorf("%s mismatch: Feature = %v, want a directory-mismatch error", name, err)
		}
		if st := s.PoolStats(); st.Resident != 0 {
			t.Errorf("%s mismatch: the rejected page is resident (%+v)", name, st)
		}
		s.Close()
	}
}

// TestSidecarViewsAreRecords checks the views Visit hands out now that a
// frame is the page as read: on a miss and on a later hit, every view is the
// written feature bit for bit, has len == cap == fullDim, is 8-byte aligned
// and lies inside its pinned frame at its record's offset. The fixture is
// awkward on purpose: a page size that is not a multiple of 8, a short last
// page, and a pool smaller than the file. A page that fails its CRC or the
// directory check is never handed out, and its frame goes back to the free
// list, where the next miss takes it.
func TestSidecarViewsAreRecords(t *testing.T) {
	const (
		pageSize = 1001
		fullDim  = 13
		pool     = 4
	)
	perPage := SidecarRecordsPerPage(pageSize, fullDim)
	n := 10*perPage + 3 // 11 data pages, the last one short
	path, rids, feats, _ := sidecarFixture(t, n, fullDim, 3, pageSize)
	byRID := make(map[int64][]float64, n)
	for i, rid := range rids {
		byRID[rid] = feats[i]
	}
	s, err := OpenSidecar(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.h.dataPages <= pool {
		t.Fatalf("%d data pages fit the %d-frame pool", s.h.dataPages, pool)
	}

	checkView := func(slot uint32, feat []float64) {
		t.Helper()
		if len(feat) != fullDim || cap(feat) != fullDim {
			t.Fatalf("slot %d: view has len %d cap %d, want %d", slot, len(feat), cap(feat), fullDim)
		}
		want := byRID[s.rids[slot]]
		for d := range want {
			if math.Float64bits(feat[d]) != math.Float64bits(want[d]) {
				t.Fatalf("slot %d coordinate %d = %v, want %v", slot, d, feat[d], want[d])
			}
		}
		at := uintptr(unsafe.Pointer(&feat[0]))
		if at%8 != 0 {
			t.Fatalf("slot %d: view at %#x is not 8-byte aligned", slot, at)
		}
		// The page is pinned while fn runs, so this pin is a hit on the very
		// frame the view was cut from.
		id := page.PageID(slot / uint32(perPage))
		v, ok := s.pool.Pin(id)
		if !ok {
			t.Fatalf("slot %d: page %d is not resident during its visit", slot, id)
		}
		defer s.pool.Unpin(id)
		fr := v.(*sideFrame)
		base := uintptr(unsafe.Pointer(&fr.raw[0]))
		r := uintptr(slot % uint32(perPage))
		if want := base + 16 + r*(8+8*fullDim); at != want {
			t.Fatalf("slot %d: view at frame offset %d, want %d", slot, at-base, want-base)
		}
		if end := at + 8*fullDim; end > base+pageSize {
			t.Fatalf("slot %d: view ends %d bytes past its frame", slot, end-base-pageSize)
		}
	}
	visit := func(slots []uint32) {
		t.Helper()
		seen := 0
		if _, err := s.Visit(slots, func(i int, feat []float64) {
			seen++
			checkView(slots[i], feat)
		}); err != nil || seen != len(slots) {
			t.Fatalf("Visit: %v after %d of %d records", err, seen, len(slots))
		}
	}

	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	visit(all) // every page a miss, frames recycled through the small pool
	if st := s.PoolStats(); st.Misses != int64(s.h.dataPages) || st.Pinned != 0 {
		t.Fatalf("cold visit: %+v, want %d misses and nothing pinned", st, s.h.dataPages)
	}
	before := s.PoolStats()
	visit(all[n-2*perPage:]) // the last two pages are still resident
	if st := s.PoolStats(); st.Misses != before.Misses || st.Pinned != 0 {
		t.Fatalf("warm visit missed: %+v -> %+v", before, st)
	}

	// A CRC failure (page 1) and a directory mismatch under a valid CRC
	// (page 2): neither page's records reach fn.
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pageAt := func(data []byte, id int) []byte {
		off := (1 + s.h.metaPages + id) * pageSize
		return data[off : off+pageSize]
	}
	data := bytes.Clone(clean)
	pageAt(data, 1)[40] ^= 0x10
	pg := pageAt(data, 2)
	binary.LittleEndian.PutUint64(pg[8:], uint64(s.rids[2*perPage]+1))
	binary.LittleEndian.PutUint32(pg[4:], 0)
	binary.LittleEndian.PutUint32(pg[4:], crc32.ChecksumIEEE(pg))
	bad := filepath.Join(t.TempDir(), "bad.side")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenSidecar(bad, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, id := range []int{1, 2} {
		slot := uint32(id * perPage)
		if _, err := b.Visit([]uint32{slot}, func(int, []float64) {
			t.Fatalf("page %d failed its checks but slot %d was handed out", id, slot)
		}); err == nil {
			t.Fatalf("Visit over corrupt page %d succeeded", id)
		}
		failed := b.free
		if st := b.PoolStats(); st.Resident != 0 || failed == nil {
			t.Fatalf("page %d: failed load left %d resident frames, free list empty = %v", id, st.Resident, failed == nil)
		}
		// The next miss reads into the frame the failed load gave back.
		seen := 0
		if _, err := b.Visit([]uint32{0}, func(_ int, feat []float64) {
			seen++
			if &feat[0] != &failed.words[2] {
				t.Errorf("page 0 was read into a new frame, not the recycled one")
			}
		}); err != nil || seen != 1 {
			t.Fatalf("Visit of a clean page: %v", err)
		}
		b.EvictAll() // page 0's frame back on the free list for the next round
	}
}
