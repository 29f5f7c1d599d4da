package blobindex

import (
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// shapePoints returns n random points with RIDs 0..n-1 and the live map
// over them.
func shapePoints(seed int64, n int) ([]Point, map[int64][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	live := make(map[int64][]float64, n)
	for i := range pts {
		pts[i] = Point{Key: randKey(rng, 3), RID: int64(i)}
		live[int64(i)] = pts[i].Key
	}
	return pts, live
}

// savedFile builds pts and saves them to a fresh file.
func savedFile(t *testing.T, pts []Point) string {
	t.Helper()
	ix, err := Build(pts, onlineTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.idx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSameRange compares range answers against the oracle.
func assertSameRange(t *testing.T, oracle, got *Index, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 20; trial++ {
		q := randKey(rng, 3)
		want, have := oracle.SearchRange(q, 0.25), got.SearchRange(q, 0.25)
		if len(want) != len(have) {
			t.Fatalf("range trial %d: %d results, want %d", trial, len(have), len(want))
		}
		for i := range want {
			if want[i].RID != have[i].RID || want[i].Dist != have[i].Dist {
				t.Fatalf("range trial %d result %d: got (rid %d, dist %v), want (rid %d, dist %v)",
					trial, i, have[i].RID, have[i].Dist, want[i].RID, want[i].Dist)
			}
		}
	}
}

// TestShapesShareOneContract runs the facade contract over every way to get
// an Index. The shapes differ only in whether they have a WAL: maintenance
// and ingest stats exist exactly there. An opened file turns multi-segment
// at its first write; every other shape writes its one active segment in
// place. Every shape rejects writes after Close, and Save from every shape
// reopens with the answers of a fresh Build over the live points.
func TestShapesShareOneContract(t *testing.T) {
	opts := onlineTestOptions()
	base, _ := shapePoints(51, 400)
	insertAll := func(t *testing.T, ix *Index) *Index {
		t.Helper()
		for _, p := range base {
			if err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	shapes := []struct {
		name    string
		durable bool
		opened  bool
		make    func(t *testing.T) *Index
	}{
		{"New", false, false, func(t *testing.T) *Index {
			ix, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			return insertAll(t, ix)
		}},
		{"Build", false, false, func(t *testing.T) *Index {
			ix, err := Build(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"Open", false, true, func(t *testing.T) *Index {
			ix, err := Open(savedFile(t, base))
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"CreateOnline", true, false, func(t *testing.T) *Index {
			ix, err := CreateOnline(t.TempDir(), opts, OnlineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return insertAll(t, ix)
		}},
		{"OpenOnline", true, false, func(t *testing.T) *Index {
			dir := t.TempDir()
			ix, err := CreateOnline(dir, opts, OnlineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := insertAll(t, ix).Close(); err != nil {
				t.Fatal(err)
			}
			if ix, err = OpenOnline(dir, OnlineOptions{}); err != nil {
				t.Fatal(err)
			}
			return ix
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			_, live := shapePoints(51, 400)
			ix := sh.make(t)
			defer ix.Close()
			ix.SetReorgHook(func() {})

			singleTree := func(wantMulti bool) {
				t.Helper()
				_, aerr := ix.Analyze([]Query{{Center: base[0].Key, K: 5}}, AnalyzeOptions{SkipOptimal: true})
				serr := ix.WriteSVG(io.Discard, 0, 1, 0)
				for name, err := range map[string]error{"Analyze": aerr, "WriteSVG": serr} {
					if wantMulti != errors.Is(err, ErrMultiSegment) || !wantMulti && err != nil {
						t.Fatalf("%s: %v, want ErrMultiSegment %v", name, err, wantMulti)
					}
				}
			}
			singleTree(false)

			if _, ok := ix.IngestStats(); ok != sh.durable {
				t.Fatalf("IngestStats ok = %v, want %v", ok, sh.durable)
			}

			extra := Point{Key: []float64{0.5, 0.5, 0.5}, RID: 9000}
			if err := ix.Insert(extra); err != nil {
				t.Fatal(err)
			}
			live[extra.RID] = extra.Key
			singleTree(sh.opened)

			for name, op := range map[string]func() error{
				"SealActive": ix.SealActive, "CompactPending": ix.CompactPending, "CompactAll": ix.CompactAll,
			} {
				err := op()
				if sh.durable && err != nil || !sh.durable && !errors.Is(err, ErrNotOnline) {
					t.Fatalf("%s: %v (durable %v)", name, err, sh.durable)
				}
			}

			// Deletes hit the active segment or, on a file segment below
			// it, become tombstones.
			for rid := int64(0); rid < 25; rid++ {
				if ok, err := ix.Delete(live[rid], rid); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", rid, ok, err)
				}
				delete(live, rid)
			}
			if err := ix.Tighten(); err != nil {
				t.Fatal(err)
			}
			oracle := oracleOver(t, live)
			defer oracle.Close()
			assertSameResults(t, oracle, ix, 52)

			path := filepath.Join(t.TempDir(), "saved.idx")
			if err := ix.Save(path); err != nil {
				t.Fatal(err)
			}
			saved, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer saved.Close()
			assertSameResults(t, oracle, saved, 53)

			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ix.Insert(Point{Key: []float64{0.1, 0.1, 0.1}, RID: 9001}); err == nil {
				t.Error("Insert after Close succeeded")
			}
			if _, err := ix.Delete(live[30], 30); err == nil {
				t.Error("Delete after Close succeeded")
			}
			if err := ix.Tighten(); err == nil {
				t.Error("Tighten after Close succeeded")
			}
		})
	}
}

// TestOpenNeverWritesFile writes through an opened file — inserts, deletes
// of points in the file, a delete → re-insert → delete of one RID, Tighten
// — and checks the file's bytes never change while the index answers like
// a fresh Build over the live points, before and after a Save elsewhere.
func TestOpenNeverWritesFile(t *testing.T) {
	pts, live := shapePoints(57, 800)
	path := savedFile(t, pts)
	digest := func() [32]byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(data)
	}
	before := digest()

	ix, err := OpenWithOptions(path, OpenOptions{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.SearchKNN(pts[0].Key, 10)
	if err := ix.Tighten(); err != nil {
		t.Fatal(err)
	}
	if n := len(ix.SegmentInfos()); n != 1 {
		t.Fatalf("never-written opened index has %d segments, want 1", n)
	}

	rng := rand.New(rand.NewSource(58))
	for rid := int64(1000); rid < 1100; rid++ {
		key := randKey(rng, 3)
		if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
			t.Fatal(err)
		}
		live[rid] = key
	}
	for rid := int64(0); rid < 60; rid++ {
		if ok, err := ix.Delete(live[rid], rid); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", rid, ok, err)
		}
		delete(live, rid)
	}
	// Delete → re-insert → delete of one RID that starts in the file.
	const victim = 100
	key := live[victim]
	if ok, err := ix.Delete(key, victim); err != nil || !ok {
		t.Fatalf("first delete: ok=%v err=%v", ok, err)
	}
	if ok, err := ix.Delete(key, victim); err != nil || ok {
		t.Fatalf("repeat delete: ok=%v err=%v, want absent", ok, err)
	}
	if err := ix.Insert(Point{Key: key, RID: victim}); err != nil {
		t.Fatal(err)
	}
	if ok, err := ix.Delete(key, victim); err != nil || !ok {
		t.Fatalf("delete after re-insert: ok=%v err=%v", ok, err)
	}
	delete(live, victim)
	if err := ix.Tighten(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	if digest() != before {
		t.Fatal("writes through an opened index changed its file")
	}

	oracle := oracleOver(t, live)
	defer oracle.Close()
	assertSameResults(t, oracle, ix, 59)
	assertSameRange(t, oracle, ix, 60)

	out := filepath.Join(t.TempDir(), "saved.idx")
	if err := ix.Save(out); err != nil {
		t.Fatal(err)
	}
	saved, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer saved.Close()
	assertSameResults(t, oracle, saved, 61)
	assertSameRange(t, oracle, saved, 62)
	if digest() != before {
		t.Fatal("Save elsewhere changed the opened file")
	}
}
