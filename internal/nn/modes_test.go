package nn

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
)

// The sphere and expanding engines are exact: their result distances must
// match the best-first search for every access method.
func TestSphereAndExpandingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	pts := randomPoints(rng, 3000, 3)
	for _, kind := range am.Kinds() {
		tree := buildTree(t, kind, pts, 3)
		for trial := 0; trial < 10; trial++ {
			q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
			k := 1 + rng.Intn(40)
			want := search(t, SearchCtxInto, tree, q, k, nil)
			for name, engine := range map[string]knnEngine{
				"sphere":    SearchSphereCtxInto,
				"expanding": SearchExpandingCtxInto,
			} {
				got := search(t, engine, tree, q, k, nil)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d results, want %d", kind, name, len(got), len(want))
				}
				for i := range got {
					if got[i].Dist2 != want[i].Dist2 {
						t.Fatalf("%s/%s: result %d dist %v, want %v",
							kind, name, i, got[i].Dist2, want[i].Dist2)
					}
				}
			}
		}
	}
}

func TestSphereEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := randomPoints(rng, 100, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	if got := search(t, SearchSphereCtxInto, tree, geom.Vector{1, 1}, 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
	empty, err := gist.New(tree.Ext(), gist.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := search(t, SearchSphereCtxInto, empty, geom.Vector{1, 1}, 3, nil); got != nil {
		t.Error("empty tree should return nil")
	}
	if got := search(t, SearchExpandingCtxInto, empty, geom.Vector{1, 1}, 3, nil); got != nil {
		t.Error("empty tree should return nil")
	}
	if got := search(t, SearchApproxCtxInto, empty, geom.Vector{1, 1}, 3, nil); got != nil {
		t.Error("empty tree should return nil")
	}
}

func TestExpandingKLargerThanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := randomPoints(rng, 60, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	got := search(t, SearchExpandingCtxInto, tree, geom.Vector{50, 50}, 1000, nil)
	if len(got) != 60 {
		t.Errorf("got %d results, want all 60", len(got))
	}
}

func TestExpandingDuplicatePoints(t *testing.T) {
	// All points identical: the probe's radius estimate degenerates to
	// zero; the search must still terminate and return k copies.
	pts := make([]gist.Point, 50)
	for i := range pts {
		pts[i] = gist.Point{Key: geom.Vector{3, 3}, RID: int64(i)}
	}
	tree := buildTree(t, am.KindRTree, pts, 2)
	got := search(t, SearchExpandingCtxInto, tree, geom.Vector{3, 3}, 10, nil)
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	for _, r := range got {
		if r.Dist2 != 0 {
			t.Errorf("dist = %v, want 0", r.Dist2)
		}
	}
}

// The harvest search is approximate but must return k results sorted by
// distance, and with a quality no better than exact (sanity).
func TestApproxHarvestBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := randomPoints(rng, 2000, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	q := geom.Vector{50, 50}
	var trace gist.Trace
	got := search(t, SearchApproxCtxInto, tree, q, 100, &trace)
	if len(got) != 100 {
		t.Fatalf("got %d results", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist2 < got[i-1].Dist2 {
			t.Fatal("harvest results not sorted")
		}
	}
	// Harvest reads the minimum number of leaves needed for k candidates.
	minLeaves := (100 + tree.LeafCapacity() - 1) / tree.LeafCapacity()
	if trace.LeafAccesses() < minLeaves {
		t.Errorf("harvest read %d leaves, cannot be under %d", trace.LeafAccesses(), minLeaves)
	}
	// The exact k-th distance lower-bounds the harvest's k-th distance.
	exact := search(t, SearchCtxInto, tree, q, 100, nil)
	if got[99].Dist2 < exact[99].Dist2-1e-12 {
		t.Error("approximate k-th distance beat the exact one")
	}
}

// Sphere-mode traces must be supersets of nothing extra: every access method
// visits at least the leaves containing results, and JB visits no more
// leaves than the R-tree on the same sphere.
func TestSphereTraceMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := randomPoints(rng, 4000, 3)
	rt := buildTree(t, am.KindRTree, pts, 3)
	jb := buildTree(t, am.KindJB, pts, 3)
	var rtLeaves, jbLeaves int
	for trial := 0; trial < 20; trial++ {
		q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		var rtTrace, jbTrace gist.Trace
		search(t, SearchSphereCtxInto, rt, q, 50, &rtTrace)
		search(t, SearchSphereCtxInto, jb, q, 50, &jbTrace)
		rtLeaves += rtTrace.LeafAccesses()
		jbLeaves += jbTrace.LeafAccesses()
	}
	if jbLeaves > rtLeaves {
		t.Errorf("JB sphere accesses %d exceed R-tree %d", jbLeaves, rtLeaves)
	}
}

// TestEngineContract holds every engine to the shared entry-point contract:
// results are appended after a caller's dst prefix, a canceled ctx returns
// its error with dst truncated to that prefix, and k <= 0 or an empty tree
// (for the multi-root search, empty trees or no roots at all) leaves dst
// unchanged with a nil error.
func TestEngineContract(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pts := randomPoints(rng, 1500, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	empty, err := gist.New(tree.Ext(), gist.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Vector{40, 60}
	const k = 15
	radius2 := search(t, SearchCtxInto, tree, q, k, nil)[k-1].Dist2

	type run func(context.Context, *gist.Tree, int, []Result) ([]Result, error)
	byK := func(e knnEngine) run {
		return func(ctx context.Context, tr *gist.Tree, k int, dst []Result) ([]Result, error) {
			return e(ctx, tr, q, k, nil, dst)
		}
	}
	engines := []struct {
		name string
		run  run
		hasK bool // k selects the result count; range ignores it
	}{
		{"best-first", byK(SearchCtxInto), true},
		{"multi-root", byK(func(ctx context.Context, tr *gist.Tree, q geom.Vector, k int, trace *gist.Trace, dst []Result) ([]Result, error) {
			return SearchRootsCtxInto(ctx, []Root{{Tree: empty}, {Tree: tr, Gen: 1}}, map[int64]uint64{-1: 2}, nil, q, k, trace, dst)
		}), true},
		{"expanding", byK(SearchExpandingCtxInto), true},
		{"sphere", byK(SearchSphereCtxInto), true},
		{"approx", byK(SearchApproxCtxInto), true},
		{"range", func(ctx context.Context, tr *gist.Tree, _ int, dst []Result) ([]Result, error) {
			return RangeCtxInto(ctx, tr, q, radius2, nil, dst)
		}, false},
	}
	prefix := func() []Result { return []Result{{RID: -1, Dist2: -1}, {RID: -2, Dist2: -2}} }
	samePrefix := func(t *testing.T, got []Result) {
		t.Helper()
		if len(got) < 2 || got[0].RID != -1 || got[1].RID != -2 {
			t.Fatalf("dst prefix not preserved: %+v", got[:min(len(got), 2)])
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()

	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			// (a) Results land after the prefix, identical to a fresh call.
			want, err := e.run(bg, tree, k, nil)
			if err != nil || len(want) == 0 {
				t.Fatalf("fresh call: %d results, err %v", len(want), err)
			}
			got, err := e.run(bg, tree, k, prefix())
			if err != nil {
				t.Fatal(err)
			}
			samePrefix(t, got)
			if len(got)-2 != len(want) {
				t.Fatalf("appended %d results, fresh call returned %d", len(got)-2, len(want))
			}
			for i, w := range want {
				if got[2+i].RID != w.RID || got[2+i].Dist2 != w.Dist2 {
					t.Fatalf("result %d: %+v after prefix, %+v fresh", i, got[2+i], w)
				}
			}

			// (b) A canceled ctx returns its error with dst truncated.
			got, err = e.run(canceled, tree, k, prefix())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled ctx: err %v, want context.Canceled", err)
			}
			samePrefix(t, got)
			if len(got) != 2 {
				t.Fatalf("canceled ctx: dst grew to %d", len(got))
			}

			// (c) Nothing to search returns dst unchanged and no error.
			type noop struct {
				name string
				tree *gist.Tree
				k    int
			}
			cases := []noop{{"empty tree", empty, k}}
			if e.hasK {
				cases = append(cases, noop{"k=0", tree, 0}, noop{"k<0", tree, -3})
			}
			for _, c := range cases {
				got, err := e.run(bg, c.tree, c.k, prefix())
				if err != nil {
					t.Fatalf("%s: err %v", c.name, err)
				}
				samePrefix(t, got)
				if len(got) != 2 {
					t.Fatalf("%s: dst grew to %d", c.name, len(got))
				}
			}
		})
	}

	got, err := SearchRootsCtxInto(bg, nil, nil, nil, q, k, nil, prefix())
	if err != nil || len(got) != 2 {
		t.Fatalf("zero roots: dst grew to %d, err %v", len(got), err)
	}
	samePrefix(t, got)
}
