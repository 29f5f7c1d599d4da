package blobindex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"blobindex/internal/blobworld"
	"blobindex/internal/geom"
)

// refineFixture builds an end-to-end filter-and-refine setup: a corpus of n
// fullDim-dimensional features, a reducer to indexDim, an index over the
// reduced keys and an attached sidecar holding the full features.
func refineFixture(t *testing.T, n, fullDim, indexDim int) (*Index, [][]float64) {
	t.Helper()
	ix, feats, _ := refineFixturePool(t, n, fullDim, indexDim, 64)
	return ix, feats
}

// refineFixturePool is refineFixture with the sidecar's pool size chosen by
// the caller; it also returns the sidecar's path, for tests that reopen it.
func refineFixturePool(t *testing.T, n, fullDim, indexDim, poolPages int) (*Index, [][]float64, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	feats := make([][]float64, n)
	rids := make([]int64, n)
	for i := range feats {
		f := make([]float64, fullDim)
		for d := range f {
			f[d] = rng.Float64()
		}
		feats[i] = f
		rids[i] = int64(i)
	}
	red, err := FitReducer(feats, indexDim)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, n)
	for i, f := range feats {
		pts[i] = Point{Key: red.Reduce(f), RID: rids[i]}
	}
	ix, err := Build(pts, Options{Method: XJB, Dim: indexDim, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(t.TempDir(), "side.idx")
	if err := SaveSidecar(side, 4096, red, rids, feats); err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachRefine(side, poolPages); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, feats, side
}

// bruteForceQF returns the k nearest RIDs and their squared distances by
// exact quadratic-form distance over the full features, ties broken by RID —
// the ground truth the refine tier approximates (and matches bit for bit,
// when the multiplier covers the corpus).
func bruteForceQF(feats [][]float64, q []float64, k int) ([]int64, []float64) {
	type scored struct {
		rid   int64
		dist2 float64
	}
	all := make([]scored, len(feats))
	for i, f := range feats {
		all[i] = scored{rid: int64(i), dist2: blobworld.QFDist2(geom.Vector(q), geom.Vector(f))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist2 != all[b].dist2 {
			return all[a].dist2 < all[b].dist2
		}
		return all[a].rid < all[b].rid
	})
	if k > len(all) {
		k = len(all)
	}
	rids := make([]int64, k)
	dist2 := make([]float64, k)
	for i := range rids {
		rids[i] = all[i].rid
		dist2[i] = all[i].dist2
	}
	return rids, dist2
}

func TestSearchRequestValidate(t *testing.T) {
	cases := []struct {
		name string
		req  SearchRequest
		want error
	}{
		{"negative K", SearchRequest{Query: []float64{1}, K: -1}, ErrInvalidSearchRequest},
		{"negative radius", SearchRequest{Query: []float64{1}, Radius: -0.5}, ErrInvalidSearchRequest},
		{"neither K nor Radius", SearchRequest{Query: []float64{1}}, ErrInvalidSearchRequest},
		{"both K and Radius", SearchRequest{Query: []float64{1}, K: 3, Radius: 0.5}, ErrInvalidSearchRequest},
		{"recall without refine", SearchRequest{Query: []float64{1}, K: 3, TargetRecall: 0.9}, ErrInvalidSearchRequest},
		{"recall on range", SearchRequest{Query: []float64{1}, Radius: 0.5, Refine: true, TargetRecall: 0.9}, ErrInvalidSearchRequest},
		{"recall above one", SearchRequest{Query: []float64{1}, K: 3, Refine: true, TargetRecall: 1.5}, ErrInvalidRecallTarget},
		{"negative recall", SearchRequest{Query: []float64{1}, K: 3, Refine: true, TargetRecall: -0.1}, ErrInvalidRecallTarget},
		{"recall and multiplier", SearchRequest{Query: []float64{1}, K: 3, Refine: true, TargetRecall: 0.9, Multiplier: 4}, ErrInvalidSearchRequest},
		{"negative multiplier", SearchRequest{Query: []float64{1}, K: 3, Refine: true, Multiplier: -2}, ErrInvalidSearchRequest},
		{"multiplier without refine", SearchRequest{Query: []float64{1}, K: 3, Multiplier: 4}, ErrInvalidSearchRequest},
		{"multiplier on range", SearchRequest{Query: []float64{1}, Radius: 0.5, Refine: true, Multiplier: 4}, ErrInvalidSearchRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.req.Validate(); !errors.Is(err, c.want) {
				t.Fatalf("Validate() = %v, want %v", err, c.want)
			}
		})
	}
	// An out-of-range recall target matches both sentinels.
	err := SearchRequest{Query: []float64{1}, K: 3, Refine: true, TargetRecall: 2}.Validate()
	if !errors.Is(err, ErrInvalidSearchRequest) || !errors.Is(err, ErrInvalidRecallTarget) {
		t.Fatalf("recall violation should wrap both sentinels, got %v", err)
	}
	for _, ok := range []SearchRequest{
		{Query: []float64{1}, K: 3},
		{Query: []float64{1}, Radius: 0.5},
		{Query: []float64{1}, K: 3, Refine: true},
		{Query: []float64{1}, K: 3, Refine: true, TargetRecall: 0.95},
		{Query: []float64{1}, K: 3, Refine: true, Multiplier: 4},
		{Query: []float64{1}, Radius: 0.5, Refine: true},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
}

func TestSearchDimValidation(t *testing.T) {
	ix, _ := refineFixture(t, 200, 16, 3)
	ctx := context.Background()

	// A zero-length or mismatched query fails before traversal.
	for _, q := range [][]float64{nil, {}, {1}, {1, 2, 3, 4}} {
		if _, err := ix.Search(ctx, SearchRequest{Query: q, K: 5}); !errors.Is(err, ErrDimMismatch) {
			t.Fatalf("Search(dim %d) = %v, want ErrDimMismatch", len(q), err)
		}
	}
	// A refining request must carry the full dimensionality, not the
	// index's.
	if _, err := ix.Search(ctx, SearchRequest{Query: []float64{1, 2, 3}, K: 5, Refine: true}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("refine with index-dim query = %v, want ErrDimMismatch", err)
	}

	// SearchIter with a bad query yields an exhausted iterator instead of
	// traversing mismatched geometry.
	it := ix.SearchIter(nil)
	if _, ok := it.Next(); ok {
		t.Fatal("SearchIter(nil).Next() returned a neighbor")
	}
	if _, ok := it.NextWithin(1); ok {
		t.Fatal("SearchIter(nil).NextWithin() returned a neighbor")
	}
}

func TestSearchNoRefineStore(t *testing.T) {
	pts := []Point{{Key: []float64{0, 0}, RID: 1}, {Key: []float64{1, 1}, RID: 2}}
	ix, err := Build(pts, Options{Method: RTree, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.Search(context.Background(), SearchRequest{Query: []float64{0, 0}, K: 1, Refine: true})
	if !errors.Is(err, ErrNoRefineStore) {
		t.Fatalf("Search(Refine) without store = %v, want ErrNoRefineStore", err)
	}
}

// TestSearchRefineMatchesBruteForce is the refine-tier property test: when
// the multiplier covers the whole corpus, the refined top-k equals the
// brute-force full-dimensionality top-k exactly; at smaller multipliers the
// refined top-k stays a subset of a correspondingly deeper brute-force
// prefix.
func TestSearchRefineMatchesBruteForce(t *testing.T) {
	const (
		n        = 600
		fullDim  = 32
		indexDim = 4
		k        = 10
	)
	ix, feats := refineFixture(t, n, fullDim, indexDim)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 20; trial++ {
		q := feats[rng.Intn(n)]

		// Full coverage: k × multiplier ≥ n makes the filter stage a scan,
		// so the refine stage must reproduce ground truth exactly.
		resp, err := ix.Search(ctx, SearchRequest{Query: q, K: k, Refine: true, Multiplier: n/k + 1})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Refined || resp.Refine.Candidates != resp.Filter.Candidates {
			t.Fatalf("refine stage did not score every filter candidate: %+v", resp)
		}
		if len(resp.Neighbors) != k {
			t.Fatalf("refined search returned %d results, want %d", len(resp.Neighbors), k)
		}
		if resp.Filter.Candidates != n {
			t.Fatalf("full-coverage filter returned %d of %d candidates", resp.Filter.Candidates, n)
		}
		truth, truthDist2 := bruteForceQF(feats, q, k)
		for i, nb := range resp.Neighbors {
			if nb.RID != truth[i] || math.Float64bits(nb.Dist2) != math.Float64bits(truthDist2[i]) {
				t.Fatalf("trial %d rank %d: refined (rid %d, dist2 %v), brute force (rid %d, dist2 %v)",
					trial, i, nb.RID, nb.Dist2, truth[i], truthDist2[i])
			}
		}
		if resp.Refine.Pages < 1 || resp.Refine.Pages > resp.Refine.Candidates || resp.Filter.Pages != 0 {
			t.Fatalf("trial %d: refine pinned %d pages for %d candidates, filter reports %d",
				trial, resp.Refine.Pages, resp.Refine.Candidates, resp.Filter.Pages)
		}
		// Distances come back in the full quadratic-form metric, ascending.
		for i := 1; i < len(resp.Neighbors); i++ {
			if resp.Neighbors[i].Dist < resp.Neighbors[i-1].Dist {
				t.Fatalf("refined distances not ascending at %d", i)
			}
		}

		// Partial coverage: the refined top-k is the optimum over a subset of
		// the corpus, so its rank-i distance can never beat the brute-force
		// rank-i distance (exactly — identical arithmetic on both sides).
		const mult = 4
		resp, err = ix.Search(ctx, SearchRequest{Query: q, K: k, Refine: true, Multiplier: mult})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Filter.Candidates != k*mult {
			t.Fatalf("filter returned %d candidates, want %d", resp.Filter.Candidates, k*mult)
		}
		for i, nb := range resp.Neighbors {
			if nb.Dist2 < truthDist2[i] {
				t.Fatalf("trial %d rank %d: refined dist2 %v beats brute force %v", trial, i, nb.Dist2, truthDist2[i])
			}
		}
	}
}

// TestSearchRefineRange checks the radius + refine combination: membership
// is the index-space radius set, ordering and distances are full-space.
func TestSearchRefineRange(t *testing.T) {
	ix, feats := refineFixture(t, 400, 24, 3)
	ctx := context.Background()
	q := make([]float64, 24)
	for d := range q {
		q[d] = 0.5
	}
	plain, err := ix.Search(ctx, SearchRequest{Query: ix.side.Project(q, nil), Radius: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := ix.Search(ctx, SearchRequest{Query: q, Radius: 0.4, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Neighbors) != len(refined.Neighbors) {
		t.Fatalf("refine changed range membership: %d vs %d", len(plain.Neighbors), len(refined.Neighbors))
	}
	got := make(map[int64]bool, len(refined.Neighbors))
	for _, nb := range refined.Neighbors {
		got[nb.RID] = true
	}
	for _, nb := range plain.Neighbors {
		if !got[nb.RID] {
			t.Fatalf("rid %d in plain range but not refined range", nb.RID)
		}
	}
	for i := 1; i < len(refined.Neighbors); i++ {
		if refined.Neighbors[i].Dist < refined.Neighbors[i-1].Dist {
			t.Fatalf("refined range distances not ascending at %d", i)
		}
	}
	// Every member carries the exact full-space distance, bit for bit.
	for _, nb := range refined.Neighbors {
		want := blobworld.QFDist2(geom.Vector(q), geom.Vector(feats[nb.RID]))
		if math.Float64bits(nb.Dist2) != math.Float64bits(want) {
			t.Fatalf("rid %d: refined dist2 %v, brute force %v", nb.RID, nb.Dist2, want)
		}
	}
}

// TestSearchRefineSteadyStateAlloc proves the refine path — block-scored
// filter plus QF re-rank — allocates nothing once warm when the caller
// reuses the destination slice: not when every sidecar page is a pool hit,
// and not when every page is a miss (an 8-page pool emptied before each
// search), where each load reads into the frame an earlier eviction gave
// back. Under -race it still drives the steady-state loop (validating the
// pooled scratch against the race detector) but skips the alloc count, which
// is unreliable there: sync.Pool drops items randomly.
func TestSearchRefineSteadyStateAlloc(t *testing.T) {
	const k = 10
	for _, tc := range []struct {
		name    string
		pool    int
		allMiss bool
	}{
		{"hits", 64, false},
		{"misses", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, feats, _ := refineFixturePool(t, 600, 32, 4, tc.pool)
			queries := feats[:32]
			dst := make([]Neighbor, 0, 8*k)
			pages := 0
			run := func(i int) {
				if tc.allMiss {
					ix.side.EvictAll()
				}
				resp, err := ix.SearchInto(nil, SearchRequest{Query: queries[i%len(queries)], K: k, Refine: true, Multiplier: 4}, dst[:0])
				if err != nil {
					t.Fatal(err)
				}
				dst = resp.Neighbors
				pages += resp.Refine.Pages
			}
			for i := 0; i < 64; i++ {
				run(i)
			}
			if raceEnabled {
				return
			}
			ix.side.ResetStats()
			pages = 0
			i := 0
			if avg := testing.AllocsPerRun(200, func() { run(i); i++ }); avg != 0 {
				t.Errorf("steady-state refined search: %.1f allocs/op, want 0", avg)
			}
			st := ix.side.PoolStats()
			if int(st.Hits+st.Misses) != pages {
				t.Errorf("%d pins for %d pages reported", st.Hits+st.Misses, pages)
			}
			if tc.allMiss && (st.Hits != 0 || st.Misses == 0) {
				t.Errorf("every page should have been a miss: %+v", st)
			}
			if !tc.allMiss && st.Misses != 0 {
				t.Errorf("every page should have been a hit: %+v", st)
			}
		})
	}
}

func TestMultiplierForRecall(t *testing.T) {
	if got := MultiplierForRecall(DefaultTargetRecall); got < 2 {
		t.Fatalf("default target maps to multiplier %d; refinement would be vacuous", got)
	}
	// Monotone: a stricter target never gets a smaller multiplier.
	prev := 0
	for _, target := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		m := MultiplierForRecall(target)
		if m < prev {
			t.Fatalf("MultiplierForRecall(%v) = %d < %d", target, m, prev)
		}
		prev = m
	}
}

// TestSearchMatchesIterator pins the unified pipeline to the incremental
// iterator over the same index — identical neighbors object for object —
// and checks that a non-refining response reports only its filter stage.
func TestSearchMatchesIterator(t *testing.T) {
	pts, queries := goldenCorpus()
	ix, err := Build(pts, Options{Method: AMAP, Dim: 5, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range queries {
		resp, err := ix.Search(ctx, SearchRequest{Query: q, K: 25})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Neighbors) != 25 {
			t.Fatalf("got %d neighbors, want 25", len(resp.Neighbors))
		}
		it := ix.SearchIter(q)
		for i, nb := range resp.Neighbors {
			want, ok := it.Next()
			if !ok {
				t.Fatalf("iterator ended at %d", i)
			}
			if nb.RID != want.RID || nb.Dist != want.Dist || nb.Dist2 != want.Dist2 {
				t.Fatalf("result %d differs: %+v vs iterator %+v", i, nb, want)
			}
		}
		if resp.Filter.Candidates != len(resp.Neighbors) || resp.Refined || resp.Multiplier != 1 {
			t.Fatalf("non-refining response misreports stages: %+v", resp)
		}
	}
}
