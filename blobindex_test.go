package blobindex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		k := make([]float64, dim)
		for d := range k {
			k[d] = rng.Float64() * 100
		}
		pts[i] = Point{Key: k, RID: int64(i)}
	}
	return pts
}

func TestBuildAndSearchEveryMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 2000, 3)
	for _, m := range Methods() {
		t.Run(string(m), func(t *testing.T) {
			idx, err := Build(pts, Options{Method: m, Dim: 3, PageSize: 2048, AMAPSamples: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Check(); err != nil {
				t.Fatalf("integrity: %v", err)
			}
			if idx.Len() != 2000 {
				t.Errorf("Len = %d", idx.Len())
			}
			q := []float64{50, 50, 50}
			res := idx.SearchKNN(q, 10)
			if len(res) != 10 {
				t.Fatalf("got %d results", len(res))
			}
			// Verify against brute force.
			type pair struct {
				rid int64
				d   float64
			}
			best := pair{d: math.Inf(1)}
			for _, p := range pts {
				var d float64
				for i := range q {
					d += (q[i] - p.Key[i]) * (q[i] - p.Key[i])
				}
				if d := math.Sqrt(d); d < best.d {
					best = pair{p.RID, d}
				}
			}
			if res[0].RID != best.rid || math.Abs(res[0].Dist-best.d) > 1e-9 {
				t.Errorf("nearest = (%d, %f), want (%d, %f)",
					res[0].RID, res[0].Dist, best.rid, best.d)
			}
		})
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("missing Dim should error")
	}
	if _, err := New(Options{}); err == nil {
		t.Error("missing Dim should error")
	}
	bad := []Point{{Key: []float64{1, 2}, RID: 1}}
	if _, err := Build(bad, Options{Dim: 3}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestDefaultMethodIsXJB(t *testing.T) {
	idx, err := New(Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Stats().Method != XJB {
		t.Errorf("default method = %s, want xjb", idx.Stats().Method)
	}
}

func TestInsertDeleteTighten(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx, err := New(Options{Method: JB, Dim: 2, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pts := randPoints(rng, 500, 2)
	for _, p := range pts {
		if err := idx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Tighten(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Check(); err != nil {
		t.Fatalf("integrity after tighten: %v", err)
	}
	ok, err := idx.Delete(pts[7].Key, pts[7].RID)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if idx.Len() != 499 {
		t.Errorf("Len = %d", idx.Len())
	}
	if err := idx.Insert(Point{Key: []float64{1}, RID: 9999}); err == nil {
		t.Error("bad dimension insert should error")
	}
}

func TestSearchRange(t *testing.T) {
	pts := []Point{
		{Key: []float64{0, 0}, RID: 1},
		{Key: []float64{3, 4}, RID: 2}, // distance 5 from origin
		{Key: []float64{10, 10}, RID: 3},
	}
	idx, err := Build(pts, Options{Method: RTree, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.SearchRange([]float64{0, 0}, 5)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].RID != 1 || res[1].RID != 2 {
		t.Errorf("results = %+v", res)
	}
	if math.Abs(res[1].Dist-5) > 1e-12 {
		t.Errorf("dist = %v, want 5", res[1].Dist)
	}
}

func TestAnalyzePublic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 3000, 3)
	idx, err := Build(pts, Options{Method: RTree, Dim: 3, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 20)
	for i := range queries {
		queries[i] = Query{Center: pts[rng.Intn(len(pts))].Key, K: 25}
	}
	a, err := idx.Analyze(queries, AnalyzeOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != 20 || a.Method != RTree {
		t.Errorf("analysis header: %+v", a)
	}
	sum := a.OptimalIOs + a.ClusteringLoss + a.UtilizationLoss + a.ExcessCoverageLoss
	if math.Abs(sum-float64(a.LeafIOs)) > 1e-6 {
		t.Errorf("decomposition %f != leaf IOs %d", sum, a.LeafIOs)
	}
	if a.TotalIOs != a.LeafIOs+a.InnerIOs {
		t.Error("total != leaf + inner")
	}
	if a.PagesHitFraction <= 0 || a.PagesHitFraction > 1 {
		t.Errorf("PagesHitFraction = %v", a.PagesHitFraction)
	}
}

func TestCorpusReducerEndToEnd(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Images: 150, Seed: 4, FeatureDim: 60})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.NumImages() != 150 || corpus.NumBlobs() < 300 {
		t.Fatalf("corpus shape: %d images, %d blobs", corpus.NumImages(), corpus.NumBlobs())
	}
	red, err := FitReducer(corpus.Features(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if red.Dim() != 5 {
		t.Errorf("Dim = %d", red.Dim())
	}
	ev := red.ExplainedVariance()
	if ev[4] <= ev[0] {
		t.Error("explained variance must grow with components")
	}
	reduced := red.ReduceAll(corpus.Features())
	pts := make([]Point, len(reduced))
	for i, v := range reduced {
		pts[i] = Point{Key: v, RID: int64(i)}
	}
	idx, err := Build(pts, Options{Method: XJB, Dim: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Query with blob 3: its own image must be the top full-ranking result
	// and among the index candidates.
	q := 3
	ref := corpus.RankImages(corpus.Feature(q), 5)
	if ref[0].Image != corpus.ImageOf(q) || ref[0].Dist != 0 {
		t.Errorf("full ranking top = %+v", ref[0])
	}
	nbrs := idx.SearchKNN(reduced[q], 50)
	var blobIDs []int64
	var images []int32
	for _, n := range nbrs {
		blobIDs = append(blobIDs, n.RID)
		images = append(images, corpus.ImageOf(int(n.RID)))
	}
	if r := Recall(ref, images); r == 0 {
		t.Error("candidates missed every reference image")
	}
	final := corpus.RankImagesAmong(corpus.Feature(q), blobIDs, 10)
	if len(final) == 0 || final[0].Image != corpus.ImageOf(q) {
		t.Errorf("re-ranked top = %+v, want the query's image", final)
	}
}

func TestQueryWeightedPublic(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Images: 120, Seed: 12, FeatureDim: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3: "color is very important, location is not, texture is
	// so-so".
	w := Weights{Color: 1, Texture: 0.5, Location: 0}
	full := corpus.QueryWeighted(9, w, 10)
	if len(full) != 10 {
		t.Fatalf("got %d images", len(full))
	}
	if full[0].Image != corpus.ImageOf(9) || full[0].Dist != 0 {
		t.Errorf("the query blob's image should win: %+v", full[0])
	}
	// Indexed pipeline: AM candidates by color, weighted re-rank.
	red, err := FitReducer(corpus.Features(), 5)
	if err != nil {
		t.Fatal(err)
	}
	reduced := red.ReduceAll(corpus.Features())
	pts := make([]Point, len(reduced))
	for i, v := range reduced {
		pts[i] = Point{Key: v, RID: int64(i)}
	}
	idx, err := Build(pts, Options{Method: XJB, Dim: 5})
	if err != nil {
		t.Fatal(err)
	}
	nbrs := idx.SearchKNN(reduced[9], 100)
	blobIDs := make([]int64, len(nbrs))
	for i, n := range nbrs {
		blobIDs[i] = n.RID
	}
	amTop := corpus.QueryWeightedAmong(9, w, blobIDs, 10)
	if len(amTop) == 0 || amTop[0].Image != corpus.ImageOf(9) {
		t.Errorf("indexed weighted pipeline should also rank the query's image first")
	}
}

func TestAutoXPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 3000, 4)
	x, err := AutoX(pts, 4, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	if x < 1 || x > 16 {
		t.Errorf("AutoX = %d", x)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 1500, 3)
	idx, err := Build(pts, Options{Method: XJB, Dim: 3, PageSize: 2048, XJBBites: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/index.idx"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Check(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	st, lst := idx.Stats(), loaded.Stats()
	if st != lst {
		t.Errorf("stats changed: %+v vs %+v", st, lst)
	}
	q := pts[33].Key
	a := idx.SearchKNN(q, 15)
	b := loaded.SearchKNN(q, 15)
	for i := range a {
		if a[i].RID != b[i].RID || a[i].Dist != b[i].Dist {
			t.Fatalf("result %d differs after round trip", i)
		}
	}
	if _, err := Open(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}

func TestCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randPoints(rng, 400, 3)
	idx, err := Build(pts, Options{Method: XJB, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/index.idx"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}

	// A demand-paged index owns an open file; shutdown paths (a deferred
	// Close racing an explicit one, as in cmd/blobserved) must be able to
	// call Close any number of times.
	opened, err := OpenWithOptions(path, OpenOptions{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got: %v", err)
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("third Close must be a no-op, got: %v", err)
	}

	// In-memory indexes have nothing to release but honor the same contract.
	if err := idx.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
	if err := idx.Close(); err != nil {
		t.Fatalf("in-memory double Close: %v", err)
	}
}

func TestConcurrentSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 3000, 3)
	idx, err := Build(pts, Options{Method: RTree, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 64)
	want := make([][]Neighbor, 64)
	for i := range queries {
		queries[i] = pts[rng.Intn(len(pts))].Key
		want[i] = idx.SearchKNN(queries[i], 10)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i, q := range queries {
				got := idx.SearchKNN(q, 10)
				for j := range got {
					if got[j].RID != want[i][j].RID {
						done <- fmt.Errorf("query %d result %d differs under concurrency", i, j)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearchIter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 800, 2)
	idx, err := Build(pts, Options{Method: XJB, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{50, 50}
	want := idx.SearchKNN(q, 25)
	it := idx.SearchIter(q)
	for i, w := range want {
		got, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended at %d", i)
		}
		if got.RID != w.RID || math.Abs(got.Dist-w.Dist) > 1e-12 {
			t.Fatalf("result %d: %+v, want %+v", i, got, w)
		}
	}
	// NextWithin mirrors SearchRange.
	it2 := idx.SearchIter(q)
	var inRange int
	for {
		if _, ok := it2.NextWithin(10); !ok {
			break
		}
		inRange++
	}
	if want := len(idx.SearchRange(q, 10)); inRange != want {
		t.Errorf("NextWithin yielded %d, SearchRange %d", inRange, want)
	}
	// Widening the radius resumes the same scan without losing or
	// repeating results.
	for {
		nb, ok := it2.NextWithin(20)
		if !ok {
			break
		}
		if nb.Dist <= 10 {
			t.Errorf("resumed scan re-yielded rid %d at %v", nb.RID, nb.Dist)
		}
		inRange++
	}
	if want := len(idx.SearchRange(q, 20)); inRange != want {
		t.Errorf("resumed NextWithin yielded %d in all, SearchRange %d", inRange, want)
	}
}

func TestSampleKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 500, 3)
	idx, err := Build(pts, Options{Method: RTree, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	keys := idx.SampleKeys(40, 1)
	if len(keys) != 40 {
		t.Fatalf("got %d keys", len(keys))
	}
	for _, k := range keys {
		if len(k) != 3 {
			t.Fatal("sampled key has wrong dimension")
		}
		// Each sampled key must be an actual stored point.
		res := idx.SearchKNN(k, 1)
		if len(res) != 1 || res[0].Dist != 0 {
			t.Fatalf("sampled key %v is not in the index", k)
		}
	}
	if got := idx.SampleKeys(0, 1); got != nil {
		t.Error("n=0 should return nil")
	}
	if got := idx.SampleKeys(1000, 1); len(got) != 500 {
		t.Errorf("oversampling returned %d keys, want all 500", len(got))
	}
}

func TestBiteRestartsOption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 1000, 3)
	for _, m := range []Method{JB, XJB} {
		idx, err := Build(pts, Options{Method: m, Dim: 3, BiteRestarts: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Check(); err != nil {
			t.Fatalf("%s with restarts: %v", m, err)
		}
		res := idx.SearchKNN(pts[0].Key, 5)
		if len(res) != 5 || res[0].RID != 0 || res[0].Dist != 0 {
			t.Fatalf("%s with restarts: bad search results %+v", m, res)
		}
	}
}

// Open is demand-paged: a small buffer pool serves exact queries, the pool
// counters move, and a warm repeat of the same query costs no new misses.
func TestOpenPagedColdVsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randPoints(rng, 3000, 3)
	idx, err := Build(pts, Options{Method: XJB, Dim: 3, PageSize: 2048, XJBBites: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/paged.idx"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.BufferStats(); ok {
		t.Error("in-memory index reports buffer stats")
	}

	pool := idx.Stats().Pages / 4
	loaded, err := OpenWithOptions(path, OpenOptions{PoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	q := pts[42].Key
	want := idx.SearchKNN(q, 200)
	got := loaded.SearchKNN(q, 200)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID || got[i].Dist != want[i].Dist {
			t.Fatalf("result %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	cold, ok := loaded.BufferStats()
	if !ok {
		t.Fatal("paged index reports no buffer stats")
	}
	if cold.Misses == 0 {
		t.Error("cold query read no pages")
	}
	if cold.Capacity != pool || cold.Resident > pool {
		t.Errorf("pool shape off: %+v", cold)
	}

	// Cold vs warm: with a pool big enough for the whole tree, the first
	// query faults its pages in and an identical repeat is served entirely
	// from memory. (The quarter-size pool above can't show this — an LRU
	// pool smaller than a repeating scan evicts each page just before its
	// reuse, the classic sequential-flooding pattern.)
	big, err := OpenWithOptions(path, OpenOptions{PoolPages: idx.Stats().Pages})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	big.SearchKNN(q, 200)
	coldBig, _ := big.BufferStats()
	big.SearchKNN(q, 200)
	warmBig, _ := big.BufferStats()
	if warmBig.Misses != coldBig.Misses {
		t.Errorf("warm repeat read %d pages from disk", warmBig.Misses-coldBig.Misses)
	}
	if warmBig.Hits == coldBig.Hits {
		t.Error("warm repeat produced no pool hits")
	}
}

// An opened index accepts the full mutation API; results after the edits
// match an in-memory index given the same edits.
func TestOpenPagedMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pts := randPoints(rng, 1200, 2)
	idx, err := Build(pts, Options{Method: RTree, Dim: 2, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/mut.idx"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenWithOptions(path, OpenOptions{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	edit := func(x *Index) {
		t.Helper()
		for i := 0; i < 40; i++ {
			if err := x.Insert(Point{Key: []float64{float64(i), 101}, RID: int64(90000 + i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 80; i++ {
			ok, err := x.Delete(pts[i].Key, pts[i].RID)
			if err != nil || !ok {
				t.Fatalf("delete %d: %v %v", i, ok, err)
			}
		}
		if err := x.Tighten(); err != nil {
			t.Fatal(err)
		}
	}
	edit(idx)
	edit(loaded)

	if err := loaded.Check(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	q := pts[500].Key
	a, b := idx.SearchKNN(q, 30), loaded.SearchKNN(q, 30)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d results", len(b), len(a))
	}
	for i := range a {
		if a[i].RID != b[i].RID || a[i].Dist != b[i].Dist {
			t.Fatalf("result %d differs after mutation", i)
		}
	}
}
