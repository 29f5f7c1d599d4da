package pagefile

import (
	"context"
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/str"
)

// The headline acceptance check: a demand-paged index with a buffer pool at
// 25% of the tree's pages answers 200-NN queries with results identical to
// the fully in-memory tree, for every access method. Leaf attributions are
// deliberately excluded from the comparison — the paged store addresses
// nodes by file page index while the in-memory tree numbers them in build
// order — so identity means RID and distance, which is what callers see.
func TestOpenPagedMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range am.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			tree, _ := buildTree(t, kind, 2500, 3, 2048)
			path := filepath.Join(dir, string(kind)+".idx")
			if err := Save(path, tree); err != nil {
				t.Fatal(err)
			}
			pool := tree.NumPages() / 4
			paged, store, err := OpenPaged(path, am.Options{AMAPSamples: 32}, pool)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if paged.Len() != tree.Len() || paged.Height() != tree.Height() {
				t.Fatalf("shape: len %d→%d height %d→%d",
					tree.Len(), paged.Len(), tree.Height(), paged.Height())
			}
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 8; trial++ {
				q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
				want := knn(t, tree, q, 200, nil)
				got := knn(t, paged, q, 200, nil)
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
				}
				for i := range want {
					if got[i].RID != want[i].RID || got[i].Dist2 != want[i].Dist2 {
						t.Fatalf("trial %d result %d: (%d, %v) want (%d, %v)",
							trial, i, got[i].RID, got[i].Dist2, want[i].RID, want[i].Dist2)
					}
				}
				// Range queries through the GiST SEARCH template agree too.
				r2 := 40.0
				wantR, err := tree.RangeSearch(q, r2, nil)
				if err != nil {
					t.Fatal(err)
				}
				gotR, err := paged.RangeSearch(q, r2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotR) != len(wantR) {
					t.Fatalf("range: %d rids, want %d", len(gotR), len(wantR))
				}
				for i := range wantR {
					if gotR[i] != wantR[i] {
						t.Fatalf("range rid %d: %d want %d", i, gotR[i], wantR[i])
					}
				}
			}
			st := store.PoolStats()
			if st.Pinned != 0 {
				t.Errorf("queries left %d pages pinned", st.Pinned)
			}
			if st.Resident > pool {
				t.Errorf("pool holds %d pages, capacity %d", st.Resident, pool)
			}
			if st.Misses == 0 {
				t.Error("no misses at 25%% capacity — demand paging not exercised")
			}
			if st.Evictions == 0 {
				t.Error("no evictions at 25%% capacity")
			}
		})
	}
}

// Warm pool: with capacity for the whole tree, repeating a query must cost
// zero additional misses — every page is served from the pool.
func TestOpenPagedWarmPoolServesFromMemory(t *testing.T) {
	tree, _ := buildTree(t, am.KindJB, 1500, 3, 2048)
	path := filepath.Join(t.TempDir(), "warm.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	paged, store, err := OpenPaged(path, am.Options{}, tree.NumPages())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	q := geom.Vector{50, 50, 50}
	knn(t, paged, q, 50, nil)
	cold := store.PoolStats()
	knn(t, paged, q, 50, nil)
	warm := store.PoolStats().Sub(cold)
	if warm.Misses != 0 {
		t.Errorf("warm repeat of the same query missed %d times", warm.Misses)
	}
	if warm.Hits == 0 {
		t.Error("warm repeat recorded no hits")
	}
	if cold.Misses == 0 {
		t.Error("cold query recorded no misses")
	}
}

// An opened index is read-only. For every access method, Insert, Delete of
// a present point and TightenPredicates on an OpenPaged tree each return
// gist.ErrReadOnly, and afterwards the file's bytes, the tree's size, a
// 200-NN answer and the pin balance are exactly what they were before.
// Writes over an opened file go through a memory segment stacked on top of
// it (the facade's OpenPaged tests cover that path).
func TestPagedTreeRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range am.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			tree, pts := buildTree(t, kind, 900, 2, 1024)
			path := filepath.Join(dir, string(kind)+".idx")
			if err := Save(path, tree); err != nil {
				t.Fatal(err)
			}
			digest := func() [sha256.Size]byte {
				t.Helper()
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return sha256.Sum256(b)
			}
			paged, store, err := OpenPaged(path, am.Options{AMAPSamples: 32}, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			q := geom.Vector{40, 60}
			wantSum, wantLen, want := digest(), paged.Len(), knn(t, paged, q, 200, nil)

			if err := paged.Insert(gist.Point{Key: geom.Vector{1, 2}, RID: 50000}); !errors.Is(err, gist.ErrReadOnly) {
				t.Errorf("Insert = %v, want ErrReadOnly", err)
			}
			if ok, err := paged.Delete(pts[0].Key, pts[0].RID); ok || !errors.Is(err, gist.ErrReadOnly) {
				t.Errorf("Delete = (%v, %v), want (false, ErrReadOnly)", ok, err)
			}
			if err := paged.TightenPredicates(); !errors.Is(err, gist.ErrReadOnly) {
				t.Errorf("TightenPredicates = %v, want ErrReadOnly", err)
			}

			if digest() != wantSum {
				t.Error("the index file changed")
			}
			if paged.Len() != wantLen {
				t.Errorf("Len %d, want %d", paged.Len(), wantLen)
			}
			got := knn(t, paged, q, 200, nil)
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].RID != want[i].RID || got[i].Dist2 != want[i].Dist2 || got[i].Leaf != want[i].Leaf {
					t.Fatalf("result %d: %+v, want %+v", i, got[i], want[i])
				}
			}
			if st := store.PoolStats(); st.Pinned != 0 {
				t.Errorf("%d pages left pinned", st.Pinned)
			}
		})
	}
}

// Zero-capacity pool is the fully cold configuration: every unpinned page
// re-reads from disk, but queries still work and still pin-balance. Close
// is then raced from several goroutines: exactly one releases the file and
// every call returns nil.
func TestOpenPagedZeroCapacity(t *testing.T) {
	tree, _ := buildTree(t, am.KindRTree, 800, 2, 1024)
	path := filepath.Join(t.TempDir(), "cold.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	paged, store, err := OpenPaged(path, am.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	want := knn(t, tree, geom.Vector{30, 70}, 25, nil)
	got := knn(t, paged, geom.Vector{30, 70}, 25, nil)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	st := store.PoolStats()
	if st.Pinned != 0 || st.Resident != 0 {
		t.Errorf("cold pool retains frames: %+v", st)
	}
	if st.Hits != 0 {
		t.Errorf("cold pool recorded %d hits", st.Hits)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := store.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkPagedMiss times the index pager's miss path: 200-NN searches
// over a demand-paged XJB index of 48 000 5-d points in 8 KB pages, through
// a pool of 32 frames — a small fraction of the file's pages, so most pins
// miss and read their page. ns/miss is the wall time per real page read,
// the search's own work included; misses/op is the pager's read count per
// search, fixed by the query set and the pool, whatever reads the pages.
func BenchmarkPagedMiss(b *testing.B) {
	const n, dim, k, queries = 48000, 5, 200, 64
	rng := rand.New(rand.NewSource(1))
	pts := make([]gist.Point, n)
	for i := range pts {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	ext, err := am.New(am.KindXJB, am.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := gist.Config{Dim: dim, PageSize: 8192}
	probe, err := gist.New(ext, cfg)
	if err != nil {
		b.Fatal(err)
	}
	str.Order(pts, probe.LeafCapacity())
	tree, err := gist.BulkLoad(ext, cfg, pts, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "miss.idx")
	if err := Save(path, tree); err != nil {
		b.Fatal(err)
	}
	paged, store, err := OpenPaged(path, am.Options{}, 32)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	qs := make([]geom.Vector, queries)
	for i := range qs {
		qs[i] = geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	}
	ctx := context.Background()
	dst := make([]nn.Result, 0, k)
	for i := 0; i < 8; i++ {
		if dst, err = nn.SearchCtxInto(ctx, paged, qs[i], k, nil, dst[:0]); err != nil {
			b.Fatal(err) // pools and scratch warm
		}
	}
	store.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = nn.SearchCtxInto(ctx, paged, qs[i%queries], k, nil, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	misses := store.PoolStats().Misses
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(misses), "ns/miss")
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
}
