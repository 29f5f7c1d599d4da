package gist

import (
	"math/rand"
	"sort"
	"testing"

	"blobindex/internal/geom"
)

// mbrExt is a minimal MBR extension used to exercise the framework
// independently of the production access methods in internal/am.
type mbrExt struct{}

func (mbrExt) Name() string        { return "test-mbr" }
func (mbrExt) BPWords(dim int) int { return 2 * dim }
func (mbrExt) FromPoints(pts []geom.Vector) Predicate {
	return geom.BoundingRect(pts)
}
func (mbrExt) UnionPreds(preds []Predicate) Predicate {
	r := preds[0].(geom.Rect).Clone()
	for _, p := range preds[1:] {
		r.ExpandToRect(p.(geom.Rect))
	}
	return r
}
func (mbrExt) Extend(bp Predicate, p geom.Vector) Predicate {
	r := bp.(geom.Rect).Clone()
	r.ExpandToPoint(p)
	return r
}
func (mbrExt) Covers(bp Predicate, p geom.Vector) bool {
	return bp.(geom.Rect).Contains(p)
}
func (mbrExt) MinDist2(bp Predicate, q geom.Vector) float64 {
	return bp.(geom.Rect).MinDist2(q)
}
func (mbrExt) Penalty(bp Predicate, p geom.Vector) float64 {
	return bp.(geom.Rect).Enlargement(geom.NewRectFromPoint(p))
}
func (mbrExt) PickSplitPoints(pts []geom.Vector) (left, right []int) {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pts[idx[a]][0] < pts[idx[b]][0] })
	half := len(idx) / 2
	return idx[:half], idx[half:]
}
func (mbrExt) PickSplitPreds(preds []Predicate) (left, right []int) {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return preds[idx[a]].(geom.Rect).Lo[0] < preds[idx[b]].(geom.Rect).Lo[0]
	})
	half := len(idx) / 2
	return idx[:half], idx[half:]
}

func randomPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = Point{Key: v, RID: int64(i)}
	}
	return pts
}

func bruteRange(pts []Point, center geom.Vector, radius2 float64) map[int64]bool {
	out := make(map[int64]bool)
	for _, p := range pts {
		if center.Dist2(p.Key) <= radius2 {
			out[p.RID] = true
		}
	}
	return out
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(mbrExt{}, Config{Dim: 0}); err == nil {
		t.Error("Dim=0 should be rejected")
	}
	if _, err := New(mbrExt{}, Config{Dim: 2, PageSize: 10}); err == nil {
		t.Error("tiny PageSize should be rejected")
	}
	if _, err := New(mbrExt{}, Config{Dim: 2, MinFill: 0.9}); err == nil {
		t.Error("MinFill > 0.5 should be rejected")
	}
	tr, err := New(mbrExt{}, Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Len() != 0 {
		t.Errorf("empty tree: height=%d len=%d", tr.Height(), tr.Len())
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, err := New(mbrExt{}, Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 500, 2)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 500 {
		t.Errorf("Len = %d, want 500", tr.Len())
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d; 500 points on 512B pages should split", tr.Height())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	// Range searches match brute force.
	for i := 0; i < 20; i++ {
		center := geom.Vector{rng.Float64() * 100, rng.Float64() * 100}
		r2 := rng.Float64() * 400
		want := bruteRange(pts, center, r2)
		got, err := tr.RangeSearch(center, r2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("range search %d: got %d results, want %d", i, len(got), len(want))
		}
		for _, rid := range got {
			if !want[rid] {
				t.Fatalf("range search returned unexpected RID %d", rid)
			}
		}
	}
	// Every inserted pair is found by Lookup.
	for _, p := range pts[:50] {
		if ok, err := tr.Lookup(p.Key, p.RID); err != nil || !ok {
			t.Fatalf("Lookup failed for RID %d (err %v)", p.RID, err)
		}
	}
	if ok, _ := tr.Lookup(geom.Vector{-1, -1}, 999999); ok {
		t.Error("Lookup found a pair that was never inserted")
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr, _ := New(mbrExt{}, Config{Dim: 3})
	if err := tr.Insert(Point{Key: geom.Vector{1, 2}}); err == nil {
		t.Error("mismatched dimension should error")
	}
}

func TestDelete(t *testing.T) {
	tr, err := New(mbrExt{}, Config{Dim: 2, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 300, 2)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half the points.
	for _, p := range pts[:150] {
		ok, err := tr.Delete(p.Key, p.RID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete did not find RID %d", p.RID)
		}
	}
	if tr.Len() != 150 {
		t.Errorf("Len = %d, want 150", tr.Len())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after deletes: %v", err)
	}
	// Deleted points are gone; remaining points are found.
	for _, p := range pts[:150] {
		if ok, _ := tr.Lookup(p.Key, p.RID); ok {
			t.Fatalf("deleted RID %d still present", p.RID)
		}
	}
	for _, p := range pts[150:] {
		if ok, _ := tr.Lookup(p.Key, p.RID); !ok {
			t.Fatalf("surviving RID %d missing", p.RID)
		}
	}
	// Deleting a missing pair reports false without error.
	ok, err := tr.Delete(geom.Vector{1, 1}, 424242)
	if err != nil || ok {
		t.Errorf("Delete(missing) = %v, %v", ok, err)
	}
}

func TestDeleteToEmpty(t *testing.T) {
	tr, _ := New(mbrExt{}, Config{Dim: 1, PageSize: 512})
	pts := randomPoints(rand.New(rand.NewSource(3)), 100, 1)
	for _, p := range pts {
		_ = tr.Insert(p)
	}
	for _, p := range pts {
		if ok, _ := tr.Delete(p.Key, p.RID); !ok {
			t.Fatalf("delete RID %d failed", p.RID)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity of emptied tree: %v", err)
	}
}

func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 2000, 3)
	// Bulk load in x-order (a crude stand-in for STR order).
	sort.Slice(pts, func(i, j int) bool { return pts[i].Key[0] < pts[j].Key[0] })
	tr, err := BulkLoad(mbrExt{}, Config{Dim: 3, PageSize: 1024}, pts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", tr.Len())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	// Search correctness.
	for i := 0; i < 10; i++ {
		center := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		r2 := rng.Float64() * 900
		want := bruteRange(pts, center, r2)
		got, err := tr.RangeSearch(center, r2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("bulk-loaded range search: got %d, want %d", len(got), len(want))
		}
	}
	// Full leaves: fill 1.0 packs leafCap entries per leaf except the last.
	leafCap := tr.LeafCapacity()
	seen := 0
	tr.Walk(func(n *Node, _ Predicate) {
		if n.IsLeaf() {
			seen++
			if n.NumEntries() > leafCap {
				t.Errorf("leaf %d overflows", n.ID())
			}
		}
	})
	wantLeaves := (2000 + leafCap - 1) / leafCap
	if seen != wantLeaves {
		t.Errorf("leaves = %d, want %d", seen, wantLeaves)
	}
}

func TestBulkLoadEmptyAndSmall(t *testing.T) {
	tr, err := BulkLoad(mbrExt{}, Config{Dim: 2}, nil, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty bulk load: len=%d height=%d", tr.Len(), tr.Height())
	}
	one := []Point{{Key: geom.Vector{1, 2}, RID: 7}}
	tr, err = BulkLoad(mbrExt{}, Config{Dim: 2}, one, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := tr.Lookup(geom.Vector{1, 2}, 7); tr.Height() != 1 || !ok {
		t.Error("single-point bulk load broken")
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	pts := []Point{{Key: geom.Vector{1}, RID: 1}}
	if _, err := BulkLoad(mbrExt{}, Config{Dim: 1}, pts, 0); err == nil {
		t.Error("fill=0 should be rejected")
	}
	if _, err := BulkLoad(mbrExt{}, Config{Dim: 1}, pts, 1.5); err == nil {
		t.Error("fill>1 should be rejected")
	}
	bad := []Point{{Key: geom.Vector{1, 2}, RID: 1}}
	if _, err := BulkLoad(mbrExt{}, Config{Dim: 1}, bad, 1.0); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
}

func TestBulkLoadPartialFill(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 500, 2)
	tr, err := BulkLoad(mbrExt{}, Config{Dim: 2, PageSize: 1024}, pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	halfRun := int(0.5 * float64(tr.LeafCapacity()))
	tr.Walk(func(n *Node, _ Predicate) {
		if n.IsLeaf() && n.NumEntries() > halfRun {
			t.Errorf("leaf %d has %d entries, want ≤ %d at fill 0.5",
				n.ID(), n.NumEntries(), halfRun)
		}
	})
}

func TestTraceRecordsAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 1000, 2)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Key[0] < pts[j].Key[0] })
	tr, err := BulkLoad(mbrExt{}, Config{Dim: 2, PageSize: 1024}, pts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var trace Trace
	tr.RangeSearch(geom.Vector{50, 50}, 100, &trace)
	if len(trace.Accesses) == 0 {
		t.Fatal("trace is empty")
	}
	// The first access must be the root.
	if trace.Accesses[0].Page != tr.Root().ID() {
		t.Error("first access is not the root")
	}
	if trace.LeafAccesses()+trace.InnerAccesses() != len(trace.Accesses) {
		t.Error("leaf+inner accesses do not sum to total")
	}
	if got := len(trace.LeafPages()); got != trace.LeafAccesses() {
		t.Errorf("LeafPages len %d != LeafAccesses %d", got, trace.LeafAccesses())
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 800, 2)
	tr, err := BulkLoad(mbrExt{}, Config{Dim: 2, PageSize: 1024}, pts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	rootSeen := false
	tr.Walk(func(n *Node, pp Predicate) {
		visited++
		if n == tr.Root() {
			rootSeen = true
			if pp != nil {
				t.Error("root should have nil parent predicate")
			}
		} else if pp == nil {
			t.Error("non-root node should have a parent predicate")
		}
	})
	if !rootSeen {
		t.Error("Walk did not visit the root")
	}
	if visited != tr.NumPages() {
		t.Errorf("Walk visited %d nodes, NumPages reports %d", visited, tr.NumPages())
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 600, 2)
	tr, err := BulkLoad(mbrExt{}, Config{Dim: 2, PageSize: 1024}, pts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	extra := randomPoints(rng, 200, 2)
	for i := range extra {
		extra[i].RID += 10000
		if err := tr.Insert(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 800 {
		t.Errorf("Len = %d, want 800", tr.Len())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after mixed load: %v", err)
	}
}
