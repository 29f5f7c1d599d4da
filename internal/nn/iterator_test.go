package nn

import (
	"context"
	"math/rand"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
)

func TestIteratorMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	pts := randomPoints(rng, 2500, 3)
	for _, kind := range []am.Kind{am.KindRTree, am.KindJB} {
		tree := buildTree(t, kind, pts, 3)
		for trial := 0; trial < 10; trial++ {
			q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
			want := search(t, SearchCtxInto, tree, q, 30, nil)
			it := NewIterator(context.Background(), tree, q, nil)
			for i, w := range want {
				got, ok := it.Next()
				if !ok {
					t.Fatalf("%s: iterator exhausted at %d", kind, i)
				}
				if got.Dist2 != w.Dist2 {
					t.Fatalf("%s: result %d dist %v, want %v", kind, i, got.Dist2, w.Dist2)
				}
			}
		}
	}
}

func TestIteratorExhaustsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pts := randomPoints(rng, 321, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	it := NewIterator(context.Background(), tree, geom.Vector{0, 0}, nil)
	count := 0
	prev := -1.0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.Dist2 < prev {
			t.Fatal("iterator not in distance order")
		}
		prev = r.Dist2
		count++
	}
	if count != 321 {
		t.Errorf("iterated %d results, want 321", count)
	}
	// Exhausted iterator keeps returning false.
	if _, ok := it.Next(); ok {
		t.Error("exhausted iterator yielded a result")
	}
}

func TestIteratorEmptyTree(t *testing.T) {
	tree, err := gist.New(am.RTree(), gist.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	it := NewIterator(context.Background(), tree, geom.Vector{1, 1}, nil)
	if _, ok := it.Next(); ok {
		t.Error("empty tree yielded a result")
	}
}

// Early termination is the point: taking 5 of 5000 neighbors must touch far
// fewer pages than a full scan of the tree.
func TestIteratorLazyIO(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pts := randomPoints(rng, 5000, 3)
	tree := buildTree(t, am.KindRTree, pts, 3)
	var trace gist.Trace
	it := NewIterator(context.Background(), tree, pts[77].Key, &trace)
	for i := 0; i < 5; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("iterator exhausted early")
		}
	}
	if got, total := len(trace.Accesses), tree.NumPages(); got > total/4 {
		t.Errorf("5-NN touched %d of %d pages", got, total)
	}
}
