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

	"blobindex/internal/faultio"
	"blobindex/internal/geom"
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
	// The frame the failed load decoded into went back to the free list, not
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
