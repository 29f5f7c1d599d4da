package blobindex

// Tests for the concurrent query engine and the context-aware API: run them
// with -race (make check does) — the concurrent-reader tests exist to let
// the race detector prove the locking discipline, not just to check
// results.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func testPoints(n, dim int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		key := make([]float64, dim)
		for d := range key {
			key[d] = rng.Float64()
		}
		pts[i] = Point{Key: key, RID: int64(i)}
	}
	return pts
}

func testQueries(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.Float64()
		}
		qs[i] = q
	}
	return qs
}

func testIndex(t *testing.T, method Method, n int) *Index {
	t.Helper()
	ix, err := Build(testPoints(n, 4, 1), Options{Method: method, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBatchSearchKNNMatchesSequential is the determinism contract:
// BatchSearchKNN at any parallelism returns query-for-query exactly what a
// sequential loop of SearchKNN calls returns.
func TestBatchSearchKNNMatchesSequential(t *testing.T) {
	ix := testIndex(t, XJB, 3000)
	queries := testQueries(100, 4, 2)
	const k = 10
	for _, parallelism := range []int{1, 2, 7, 0} {
		batch, err := ix.BatchSearchKNN(context.Background(), queries, k, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("parallelism=%d: %d result sets for %d queries", parallelism, len(batch), len(queries))
		}
		for qi, q := range queries {
			want := ix.SearchKNN(q, k)
			got := batch[qi]
			if len(got) != len(want) {
				t.Fatalf("parallelism=%d query %d: %d results, want %d", parallelism, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].RID != want[i].RID || got[i].Dist != want[i].Dist {
					t.Fatalf("parallelism=%d query %d result %d: (%d, %g) != (%d, %g)",
						parallelism, qi, i, got[i].RID, got[i].Dist, want[i].RID, want[i].Dist)
				}
			}
		}
	}
}

// countingCtx wraps a cancellable context, counts Err() calls, and cancels
// itself once the count reaches cancelAfter. Every consultation of the
// context — BatchSearchKNN's between-slot checks and the per-page checks
// inside traversals — goes through Err(), so the final count bounds how
// much work ran after cancellation.
type countingCtx struct {
	context.Context
	cancel      context.CancelFunc
	calls       int64 // atomically updated
	cancelAfter int64
}

func newCountingCtx(cancelAfter int64) *countingCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &countingCtx{Context: ctx, cancel: cancel, cancelAfter: cancelAfter}
}

func (c *countingCtx) Err() error {
	if atomic.AddInt64(&c.calls, 1) >= c.cancelAfter {
		c.cancel()
	}
	return c.Context.Err()
}

// TestBatchSearchKNNCancelBetweenSlots asserts the batch loop checks
// cancellation at slot boundaries and exits early: the full run consults
// the context thousands of times (per slot plus per page), so a context
// cancelled after a small fraction of those consultations must leave most
// of them — and hence most query slots — unexecuted.
func TestBatchSearchKNNCancelBetweenSlots(t *testing.T) {
	ix := testIndex(t, RTree, 3000)
	queries := testQueries(400, 4, 3)
	const k = 20

	// Baseline: how many context consultations does the full batch make?
	base := newCountingCtx(1 << 62) // never cancels
	if _, err := ix.BatchSearchKNN(base, queries, k, 1); err != nil {
		t.Fatal(err)
	}
	full := atomic.LoadInt64(&base.calls)
	if full < int64(len(queries)) {
		t.Fatalf("baseline made %d ctx checks, expected at least one per slot (%d)", full, len(queries))
	}

	// Cancel a tenth of the way in: the batch must stop long before the
	// baseline's consultation count, i.e. most slots never ran.
	cc := newCountingCtx(full / 10)
	out, err := ix.BatchSearchKNN(cc, queries, k, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("cancelled batch returned results")
	}
	if got := atomic.LoadInt64(&cc.calls); got > full/2 {
		t.Errorf("cancelled batch made %d ctx checks of the baseline's %d — no early exit", got, full)
	}

	// Already-cancelled context: no slot runs at all. Each executed slot
	// costs at least one consultation, so the count stays tiny.
	pre := newCountingCtx(1)
	out, err = ix.BatchSearchKNN(pre, queries, k, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("pre-cancelled batch returned results")
	}
	if got := atomic.LoadInt64(&pre.calls); got > 8 {
		t.Errorf("pre-cancelled batch made %d ctx checks, want a handful at most", got)
	}
}

// TestConcurrentReadersSingleWriter drives every read entry point — KNN,
// range, iterator (plus its All adapter), Analyze and BatchSearchKNN —
// from parallel goroutines while one writer inserts and deletes. The race
// detector verifies the single-RWMutex discipline; the assertions only
// check sanity, since results legitimately change under the writer.
func TestConcurrentReadersSingleWriter(t *testing.T) {
	ix := testIndex(t, RTree, 2000)
	queries := testQueries(16, 4, 3)
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		extra := testPoints(300, 4, 4)
		for i := range extra {
			extra[i].RID += 1 << 20
		}
		for i := 0; i < 3; i++ {
			for _, p := range extra {
				if err := ix.Insert(p); err != nil {
					t.Error(err)
					break
				}
			}
			for _, p := range extra {
				if _, err := ix.Delete(p.Key, p.RID); err != nil {
					t.Error(err)
					break
				}
			}
		}
		close(done)
	}()

	reader := func(f func(q []float64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				f(queries[i%len(queries)])
			}
		}()
	}
	reader(func(q []float64) {
		if res := ix.SearchKNN(q, 5); len(res) != 5 {
			t.Errorf("SearchKNN returned %d results", len(res))
		}
	})
	reader(func(q []float64) {
		res := ix.SearchRange(q, 0.2)
		for _, nb := range res {
			if nb.Dist > 0.2+1e-9 {
				t.Errorf("SearchRange returned distance %g", nb.Dist)
			}
		}
	})
	reader(func(q []float64) {
		// Per-call locking makes the iterator race-free under a writer
		// even though cross-call results are then unspecified.
		it := ix.SearchIter(q)
		prev := math.Inf(-1)
		for i, nb := range it.All() {
			if i >= 8 {
				break
			}
			if nb.Dist < prev {
				t.Errorf("iterator went backwards: %g after %g", nb.Dist, prev)
			}
			prev = nb.Dist
		}
	})
	reader(func(q []float64) {
		if _, err := ix.Search(ctx, SearchRequest{Query: q, K: 3}); err != nil {
			t.Errorf("Search: %v", err)
		}
	})
	reader(func(q []float64) {
		if _, err := ix.AnalyzeCtx(ctx, []Query{{Center: q, K: 4}},
			AnalyzeOptions{SkipOptimal: true, Parallelism: 2}); err != nil {
			t.Errorf("AnalyzeCtx: %v", err)
		}
	})
	reader(func(q []float64) {
		if _, err := ix.BatchSearchKNN(ctx, queries[:4], 3, 2); err != nil {
			t.Errorf("BatchSearchKNN: %v", err)
		}
	})
	wg.Wait()
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchCtxCancellation verifies a canceled context aborts every
// context-aware entry point with context.Canceled.
func TestSearchCtxCancellation(t *testing.T) {
	ix := testIndex(t, RTree, 2000)
	q := testQueries(1, 4, 5)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ix.Search(ctx, SearchRequest{Query: q, K: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("Search k-NN: %v", err)
	}
	if _, err := ix.Search(ctx, SearchRequest{Query: q, Radius: 0.5}); !errors.Is(err, context.Canceled) {
		t.Errorf("Search range: %v", err)
	}
	if _, err := ix.BatchSearchKNN(ctx, [][]float64{q}, 5, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("BatchSearchKNN: %v", err)
	}
	if _, err := ix.AnalyzeCtx(ctx, []Query{{Center: q, K: 5}},
		AnalyzeOptions{SkipOptimal: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeCtx: %v", err)
	}
}

// TestSentinelErrors verifies the documented errors.Is identities.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()

	if _, err := Build(nil, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Build with zero Dim: %v", err)
	}
	if _, err := New(Options{Method: "btree", Dim: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("New with unknown method: %v", err)
	}
	if err := (Options{Method: RTree, Dim: 2, FillFactor: 1.5}).Validate(); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Validate with FillFactor 1.5: %v", err)
	}
	if err := (Options{Method: RTree, Dim: 2}).Validate(); err != nil {
		t.Errorf("Validate of valid options: %v", err)
	}

	if _, err := Build([]Point{{Key: []float64{1}, RID: 0}}, Options{Dim: 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Build with short key: %v", err)
	}
	ix := testIndex(t, RTree, 100)
	if err := ix.Insert(Point{Key: []float64{1, 2}, RID: 999}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Insert with short key: %v", err)
	}
	if _, err := ix.Delete([]float64{1, 2}, 0); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Delete with short key: %v", err)
	}
	if _, err := ix.Search(ctx, SearchRequest{Query: []float64{1, 2}, K: 3}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Search k-NN with short query: %v", err)
	}
	if _, err := ix.Search(ctx, SearchRequest{Query: []float64{1, 2}, Radius: 0.5}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Search range with short query: %v", err)
	}
	if _, err := ix.BatchSearchKNN(ctx, [][]float64{{1, 2}}, 3, 1); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("BatchSearchKNN with short query: %v", err)
	}

	empty, err := New(Options{Method: RTree, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.1, 0.2, 0.3, 0.4}
	if _, err := empty.Search(ctx, SearchRequest{Query: q, K: 3}); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("Search k-NN on empty index: %v", err)
	}
	if _, err := empty.Search(ctx, SearchRequest{Query: q, Radius: 0.5}); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("Search range on empty index: %v", err)
	}
	if _, err := empty.BatchSearchKNN(ctx, [][]float64{q}, 3, 1); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("BatchSearchKNN on empty index: %v", err)
	}
	// The legacy methods keep their empty-result behavior.
	if res := empty.SearchKNN(q, 3); len(res) != 0 {
		t.Errorf("SearchKNN on empty index returned %d results", len(res))
	}
}

// TestIteratorAll verifies the range-over-func adapter streams neighbors in
// order and that breaking keeps the remainder consumable.
func TestIteratorAll(t *testing.T) {
	ix := testIndex(t, RTree, 500)
	q := testQueries(1, 4, 6)[0]
	want := ix.SearchKNN(q, 20)

	it := ix.SearchIter(q)
	var got []Neighbor
	for i, nb := range it.All() {
		if i != len(got) {
			t.Fatalf("ordinal %d, expected %d", i, len(got))
		}
		got = append(got, nb)
		if len(got) == 10 {
			break
		}
	}
	// The remainder is still available after the break, via Next or All.
	if nb, ok := it.Next(); !ok || nb.RID != want[10].RID {
		t.Fatalf("Next after break: got (%v, %v), want RID %d", nb, ok, want[10].RID)
	}
	got = append(got, want[10])
	for _, nb := range it.All() {
		got = append(got, nb)
		if len(got) == 20 {
			break
		}
	}
	if len(got) != 20 {
		t.Fatalf("collected %d neighbors", len(got))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("neighbor %d: RID %d, want %d", i, got[i].RID, want[i].RID)
		}
	}
}

// TestBuildParallelismDeterministic is the byte-identical-tree contract:
// serial and parallel builds of the same input serialize to the same pages.
func TestBuildParallelismDeterministic(t *testing.T) {
	pts := testPoints(5000, 4, 7)
	dir := t.TempDir()
	var first []byte
	for _, workers := range []int{1, 0, 3} {
		ix, err := Build(pts, Options{Method: XJB, Dim: 4, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ix.pages")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = raw
			continue
		}
		if len(raw) != len(first) {
			t.Fatalf("workers=%d: file size %d != serial %d", workers, len(raw), len(first))
		}
		for i := range raw {
			if raw[i] != first[i] {
				t.Fatalf("workers=%d: file diverges from serial build at byte %d", workers, i)
			}
		}
	}
}
