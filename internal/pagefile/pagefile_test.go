package pagefile

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/str"
)

func buildTree(t *testing.T, kind am.Kind, n, dim, pageSize int) (*gist.Tree, []gist.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]gist.Point, n)
	for i := range pts {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	ext, err := am.New(kind, am.Options{AMAPSamples: 32, XJBX: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gist.Config{Dim: dim, PageSize: pageSize}
	probe, err := gist.New(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]gist.Point, len(pts))
	copy(ordered, pts)
	str.Order(ordered, probe.LeafCapacity())
	tree, err := gist.BulkLoad(ext, cfg, ordered, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

// knn runs the exact best-first search into a fresh slice, failing the test
// on error.
func knn(t *testing.T, tree *gist.Tree, q geom.Vector, k int, trace *gist.Trace) []nn.Result {
	t.Helper()
	res, err := nn.SearchCtxInto(context.Background(), tree, q, k, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Round trip every access method: structure, integrity and search results
// must survive persistence.
func TestSaveLoadRoundTripAllAMs(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range am.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			tree, pts := buildTree(t, kind, 2500, 3, 2048)
			path := filepath.Join(dir, string(kind)+".idx")
			if err := Save(path, tree); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path, am.Options{AMAPSamples: 32})
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != tree.Len() || loaded.Height() != tree.Height() {
				t.Fatalf("shape changed: len %d→%d height %d→%d",
					tree.Len(), loaded.Len(), tree.Height(), loaded.Height())
			}
			if loaded.Ext().Name() != string(kind) {
				t.Fatalf("method changed: %s", loaded.Ext().Name())
			}
			if err := loaded.CheckIntegrity(); err != nil {
				t.Fatalf("integrity: %v", err)
			}
			// Identical query results, identical I/O traces (the predicates
			// round-tripped exactly).
			rng := rand.New(rand.NewSource(8))
			for trial := 0; trial < 10; trial++ {
				q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
				var t1, t2 gist.Trace
				r1 := knn(t, tree, q, 20, &t1)
				r2 := knn(t, loaded, q, 20, &t2)
				if len(r1) != len(r2) {
					t.Fatalf("result counts differ")
				}
				for i := range r1 {
					if r1[i].RID != r2[i].RID || r1[i].Dist2 != r2[i].Dist2 {
						t.Fatalf("result %d differs: %+v vs %+v", i, r1[i], r2[i])
					}
				}
				if t1.LeafAccesses() != t2.LeafAccesses() {
					t.Fatalf("leaf accesses differ: %d vs %d — predicates not preserved",
						t1.LeafAccesses(), t2.LeafAccesses())
				}
			}
			_ = pts
		})
	}
}

func TestLoadedTreeAcceptsInserts(t *testing.T) {
	dir := t.TempDir()
	tree, _ := buildTree(t, am.KindRTree, 500, 2, 1024)
	path := filepath.Join(dir, "ins.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, am.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := gist.Point{Key: geom.Vector{float64(i), float64(i)}, RID: int64(10000 + i)}
		if err := loaded.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if loaded.Len() != 600 {
		t.Errorf("Len = %d", loaded.Len())
	}
	if err := loaded.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after inserts: %v", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	tree, _ := buildTree(t, am.KindRTree, 300, 2, 1024)
	path := filepath.Join(dir, "c.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, want error, mutate func([]byte)) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(data)
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(bad, am.Options{})
		if err == nil {
			t.Errorf("%s: corruption not detected", name)
		} else if want != nil && !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
	corrupt("magic.idx", ErrBadMagic, func(b []byte) { b[0] = 'X' })
	corrupt("version.idx", ErrVersion, func(b []byte) {
		// The version byte follows the 7-byte magic.
		b[7] = 99
	})
	corrupt("root.idx", nil, func(b []byte) {
		// rootPage field: magic+version(8) + 4*4 bytes in. Caught by the
		// semantic header check before the CRC is even computed.
		b[8+16] = 0xff
		b[8+17] = 0xff
	})
	corrupt("trunc.idx", nil, func(b []byte) {
		// Claim more pages than the file holds.
		b[8+12] = 0xff
	})
	corrupt("name.idx", ErrChecksum, func(b []byte) {
		// A flipped method-name byte passes the semantic checks but fails
		// the header CRC.
		b[8+24+8+3] ^= 0x40
	})
	corrupt("page.idx", ErrChecksum, func(b []byte) {
		// A flipped payload byte in the first node page fails that page's CRC.
		b[1024+100] ^= 0x01
	})
	// Truncated file.
	data, _ := os.ReadFile(path)
	short := filepath.Join(dir, "short.idx")
	if err := os.WriteFile(short, data[:len(data)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(short, am.Options{}); err == nil {
		t.Error("truncated file not detected")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.idx", am.Options{}); err == nil {
		t.Error("missing file should error")
	}
}

func TestXJBXSurvivesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tree, _ := buildTree(t, am.KindXJB, 1000, 3, 2048)
	path := filepath.Join(dir, "x.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, am.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The loaded extension must report the same predicate size (same X).
	if loaded.Ext().BPWords(3) != tree.Ext().BPWords(3) {
		t.Errorf("BPWords changed: %d → %d", tree.Ext().BPWords(3), loaded.Ext().BPWords(3))
	}
}
