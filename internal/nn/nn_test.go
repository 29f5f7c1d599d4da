package nn

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/str"
)

func randomPoints(rng *rand.Rand, n, dim int) []gist.Point {
	pts := make([]gist.Point, n)
	for i := range pts {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	return pts
}

func buildTree(t testing.TB, kind am.Kind, pts []gist.Point, dim int) *gist.Tree {
	t.Helper()
	ext, err := am.New(kind, am.Options{AMAPSamples: 64, AMAPSeed: 3, XJBX: 4})
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]gist.Point, len(pts))
	copy(ordered, pts)
	cfg := gist.Config{Dim: dim, PageSize: 2048}
	tree, err := gist.New(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	str.Order(ordered, tree.LeafCapacity())
	tree, err = gist.BulkLoad(ext, cfg, ordered, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// knnEngine is the shape of every k-NN engine in this package.
type knnEngine func(context.Context, *gist.Tree, geom.Vector, int, *gist.Trace, []Result) ([]Result, error)

// search runs a k-NN engine into a fresh result slice with no cancellation,
// failing the test on error.
func search(tb testing.TB, engine knnEngine, tree *gist.Tree, q geom.Vector, k int, trace *gist.Trace) []Result {
	tb.Helper()
	res, err := engine(context.Background(), tree, q, k, trace, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// Exactness: for every access method, index k-NN must return exactly the
// brute-force k-NN (same RIDs in the same distance order).
func TestSearchExactAllAMs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pts := randomPoints(rng, 3000, 3)
	for _, kind := range am.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			tree := buildTree(t, kind, pts, 3)
			for trial := 0; trial < 15; trial++ {
				q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
				k := 1 + rng.Intn(50)
				got := search(t, SearchCtxInto, tree, q, k, nil)
				want := BruteForce(pts, q, k)
				if len(got) != len(want) {
					t.Fatalf("got %d results, want %d", len(got), len(want))
				}
				for i := range got {
					// Distances must agree; ties may order RIDs differently.
					if got[i].Dist2 > want[i].Dist2+1e-9 || got[i].Dist2 < want[i].Dist2-1e-9 {
						t.Fatalf("result %d: dist2 %.9f, want %.9f", i, got[i].Dist2, want[i].Dist2)
					}
				}
			}
		})
	}
}

func TestSearchReturnsAllWhenKExceedsN(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 57, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	got := search(t, SearchCtxInto, tree, geom.Vector{0, 0}, 1000, nil)
	if len(got) != 57 {
		t.Errorf("got %d results, want all 57", len(got))
	}
	// Results are sorted by distance.
	for i := 1; i < len(got); i++ {
		if got[i].Dist2 < got[i-1].Dist2 {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := randomPoints(rng, 100, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	if got := search(t, SearchCtxInto, tree, geom.Vector{1, 1}, 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := search(t, SearchCtxInto, tree, geom.Vector{1, 1}, -5, nil); got != nil {
		t.Error("negative k should return nil")
	}
	empty, err := gist.New(tree.Ext(), gist.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := search(t, SearchCtxInto, empty, geom.Vector{1, 1}, 3, nil); got != nil {
		t.Error("empty tree should return nil")
	}
}

func TestSearchTraceAndLeafAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 2000, 2)
	tree := buildTree(t, am.KindRTree, pts, 2)
	var trace gist.Trace
	res := search(t, SearchCtxInto, tree, geom.Vector{50, 50}, 20, &trace)
	if len(res) != 20 {
		t.Fatalf("got %d results", len(res))
	}
	if len(trace.Accesses) == 0 || trace.Accesses[0].Page != tree.Root().ID() {
		t.Error("trace must start at the root")
	}
	// Every result's Leaf must appear in the trace as a leaf access.
	leafSet := make(map[int64]bool)
	for _, p := range trace.LeafPages() {
		leafSet[int64(p)] = true
	}
	for _, r := range res {
		if !leafSet[int64(r.Leaf)] {
			t.Errorf("result RID %d attributed to leaf %d not in trace", r.RID, r.Leaf)
		}
	}
}

// Best-first search should touch far fewer leaves than exist in the tree.
func TestSearchIsSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := randomPoints(rng, 5000, 3)
	tree := buildTree(t, am.KindRTree, pts, 3)
	var trace gist.Trace
	search(t, SearchCtxInto, tree, geom.Vector{50, 50, 50}, 10, &trace)
	leaves := tree.NumLeaves()
	if trace.LeafAccesses() > leaves/4 {
		t.Errorf("10-NN touched %d of %d leaves", trace.LeafAccesses(), leaves)
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	if got := BruteForce(nil, geom.Vector{1}, 3); len(got) != 0 {
		t.Error("empty input should return empty")
	}
	pts := []gist.Point{{Key: geom.Vector{1}, RID: 5}}
	if got := BruteForce(pts, geom.Vector{0}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	got := BruteForce(pts, geom.Vector{0}, 10)
	if len(got) != 1 || got[0].RID != 5 {
		t.Errorf("got %+v", got)
	}
}

// Property: BruteForce returns a sorted prefix of the full distance order.
func TestBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 1+rng.Intn(200), 2)
		q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100}
		k := 1 + rng.Intn(20)
		got := BruteForce(pts, q, k)
		wantLen := k
		if len(pts) < k {
			wantLen = len(pts)
		}
		if len(got) != wantLen {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist2 < got[i-1].Dist2 {
				return false
			}
		}
		// No unreturned point may be closer than the worst returned one.
		if len(got) > 0 {
			worst := got[len(got)-1].Dist2
			returned := make(map[int64]bool)
			for _, r := range got {
				returned[r.RID] = true
			}
			for _, p := range pts {
				if !returned[p.RID] && q.Dist2(p.Key) < worst-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// JB's tighter predicates must not make NN search inexact (admissibility in
// the full pipeline) and should access no more leaves than the R-tree.
func TestJBSelectivityVsRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pts := randomPoints(rng, 4000, 2)
	rt := buildTree(t, am.KindRTree, pts, 2)
	jb := buildTree(t, am.KindJB, pts, 2)

	var rtLeaves, jbLeaves int
	for trial := 0; trial < 30; trial++ {
		q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100}
		var rtTrace, jbTrace gist.Trace
		rres := search(t, SearchCtxInto, rt, q, 20, &rtTrace)
		jres := search(t, SearchCtxInto, jb, q, 20, &jbTrace)
		for i := range rres {
			if rres[i].Dist2 != jres[i].Dist2 {
				t.Fatalf("JB and R-tree disagree at %d: %.9f vs %.9f",
					i, rres[i].Dist2, jres[i].Dist2)
			}
		}
		rtLeaves += rtTrace.LeafAccesses()
		jbLeaves += jbTrace.LeafAccesses()
	}
	if jbLeaves > rtLeaves {
		t.Errorf("JB accessed %d leaves, R-tree %d; JB should not be worse", jbLeaves, rtLeaves)
	}
}

// On a coarse integer grid distances tie exactly at almost every k. Every
// access method must then return exactly BruteForce's answer: the k smallest
// (Dist2, RID) pairs, RID for RID — the order the segment stack and the
// router merge by.
func TestSearchTiesBreakByRID(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pts := make([]gist.Point, 3000)
	for i := range pts {
		v := make(geom.Vector, 3)
		for d := range v {
			v[d] = float64(rng.Intn(12))
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	for _, kind := range am.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			tree := buildTree(t, kind, pts, 3)
			for trial := 0; trial < 20; trial++ {
				q := pts[rng.Intn(len(pts))].Key.Clone()
				q[trial%3] += 0.5
				for _, k := range []int{1, 13, 37, 150} {
					got := search(t, SearchCtxInto, tree, q, k, nil)
					want := BruteForce(pts, q, k)
					if len(got) != len(want) {
						t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
					}
					for i := range got {
						if got[i].RID != want[i].RID || got[i].Dist2 != want[i].Dist2 {
							t.Fatalf("k=%d: result %d = (%d, %v), want (%d, %v)",
								k, i, got[i].RID, got[i].Dist2, want[i].RID, want[i].Dist2)
						}
					}
				}
			}
		})
	}
}

// SearchRootsCtxInto over trees A and B, with tombstones masking some of A's
// points and tree C's answer as the seed, must return BruteForce's answer
// over the live union, ties broken by RID — with the seed read from dst past
// the caller's prefix, the aliasing the segment stack relies on.
func TestSearchRootsSeedMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var parts [3][]gist.Point
	var live []gist.Point
	tombs := map[int64]uint64{}
	for i := 0; i < 2400; i++ {
		v := make(geom.Vector, 3)
		for d := range v {
			v[d] = float64(rng.Intn(10))
		}
		p := gist.Point{Key: v, RID: int64(i)}
		parts[i%3] = append(parts[i%3], p)
		if i%3 == 0 && rng.Intn(4) == 0 {
			tombs[p.RID] = 2 // masks tree A (gen 1), not tree B (gen 2)
			continue
		}
		live = append(live, p)
	}
	a, b, c := buildTree(t, am.KindRTree, parts[0], 3), buildTree(t, am.KindXJB, parts[1], 3), buildTree(t, am.KindRTree, parts[2], 3)
	roots := []Root{{Tree: a, Gen: 1}, {Tree: b, Gen: 2}}
	for trial := 0; trial < 20; trial++ {
		q := live[rng.Intn(len(live))].Key.Clone()
		q[trial%3] += 0.5
		for _, k := range []int{1, 13, 150, len(live) + 1} {
			dst := append(make([]Result, 0, 2+k), Result{RID: -1}, Result{RID: -2})
			dst, err := SearchCtxInto(nil, c, q, k, nil, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SearchRootsCtxInto(nil, roots, tombs, dst[2:], q, k, nil, dst[:2])
			if err != nil || got[0].RID != -1 || got[1].RID != -2 {
				t.Fatalf("k=%d: err %v, prefix %+v", k, err, got[:min(len(got), 2)])
			}
			want := BruteForce(live, q, k)
			if len(got)-2 != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got)-2, len(want))
			}
			for i, w := range want {
				if g := got[2+i]; g.RID != w.RID || g.Dist2 != w.Dist2 {
					t.Fatalf("k=%d: result %d = (%d, %v), want (%d, %v)", k, i, g.RID, g.Dist2, w.RID, w.Dist2)
				}
			}
		}
	}
}
