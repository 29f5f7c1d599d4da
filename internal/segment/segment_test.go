package segment

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/pagefile"
	"blobindex/internal/str"
)

func randomPoints(rng *rand.Rand, n, dim int, ridBase int64) []gist.Point {
	pts := make([]gist.Point, n)
	for i := range pts {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = gist.Point{Key: v, RID: ridBase + int64(i)}
	}
	return pts
}

func buildTree(t testing.TB, pts []gist.Point, dim int) *gist.Tree {
	t.Helper()
	ext, err := am.New(am.KindRTree, am.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]gist.Point, len(pts))
	copy(ordered, pts)
	cfg := gist.Config{Dim: dim, PageSize: 2048}
	probe, err := gist.New(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	str.Order(ordered, probe.LeafCapacity())
	tree, err := gist.BulkLoad(ext, cfg, ordered, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func sameResults(t *testing.T, got, want []nn.Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].RID != want[i].RID || got[i].Dist2 != want[i].Dist2 {
			t.Fatalf("%s: result %d = (%d, %v), want (%d, %v)",
				label, i, got[i].RID, got[i].Dist2, want[i].RID, want[i].Dist2)
		}
	}
}

// A multi-segment stack over a partitioned point set must return exactly
// what one tree over the union returns — the merge discipline is lossless.
func TestStackMergeMatchesSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 3
	all := randomPoints(rng, 2000, dim, 0)
	one := buildTree(t, all, dim)

	// Partition into three segments of different generations.
	stack := NewStack([]Segment{
		WrapMem(buildTree(t, all[:900], dim), 1),
		WrapMem(buildTree(t, all[900:1600], dim), 2),
		WrapMem(buildTree(t, all[1600:], dim), 3),
	}, nil)
	defer stack.Close()

	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		k := 1 + rng.Intn(60)
		want, err := nn.SearchCtxInto(ctx, one, q, k, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stack.SearchKNN(ctx, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, "knn")

		r2 := 100 + rng.Float64()*400
		want, err = nn.RangeCtxInto(ctx, one, q, r2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err = stack.SearchRange(ctx, q, r2, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, "range")
	}
}

// A search that runs after Close fails: it does not answer from the
// emptied stack as if the index held nothing.
func TestStackSearchAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stack := NewStack([]Segment{WrapMem(buildTree(t, randomPoints(rng, 100, 2, 0), 2), 1)}, nil)
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, q := context.Background(), geom.Vector{1, 1}
	if _, err := stack.SearchKNN(ctx, q, 5, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("k-NN after Close: %v, want ErrClosed", err)
	}
	if _, err := stack.SearchRange(ctx, q, 1e6, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("range after Close: %v, want ErrClosed", err)
	}
}

// Tombstones mask segments below the watermark and only those.
func TestStackTombstones(t *testing.T) {
	const dim = 2
	old := WrapMem(buildTree(t, []gist.Point{
		{Key: geom.Vector{1, 1}, RID: 10},
		{Key: geom.Vector{2, 2}, RID: 11},
	}, dim), 1)
	young := WrapMem(buildTree(t, []gist.Point{
		{Key: geom.Vector{1, 1}, RID: 10}, // re-inserted after the delete
		{Key: geom.Vector{3, 3}, RID: 12},
	}, dim), 3)
	stack := NewStack([]Segment{old, young}, nil)
	defer stack.Close()

	// Tombstone rid 10 at watermark 2: masks the old segment's copy, not
	// the young one's.
	stack.AddTombstone(10, 2)

	got, err := stack.SearchKNN(context.Background(), geom.Vector{0, 0}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	rids := map[int64]int{}
	for _, r := range got {
		rids[r.RID]++
	}
	if rids[10] != 1 || rids[11] != 1 || rids[12] != 1 || len(got) != 3 {
		t.Fatalf("masked search returned %v", got)
	}
	if n := stack.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}

	// Contains respects the same mask: rid 10 below watermark 2 is gone,
	// rid 11 is present.
	if ok, _ := stack.Contains(geom.Vector{1, 1}, 10, 2); ok {
		t.Fatal("tombstoned rid reported present below watermark")
	}
	if ok, _ := stack.Contains(geom.Vector{2, 2}, 11, 4); !ok {
		t.Fatal("live rid reported absent")
	}
}

// Sealing blocks writes; Replace swaps a frozen memory segment for its
// compacted file form and searches keep working across the swap.
func TestSealAndReplace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 3
	pts := randomPoints(rng, 500, dim, 0)
	mem := WrapMem(buildTree(t, pts, dim), 1)
	stack := NewStack([]Segment{mem}, nil)
	defer stack.Close()

	mem.Seal()
	if err := mem.Insert(gist.Point{Key: geom.Vector{1, 2, 3}, RID: 999}); err == nil {
		t.Fatal("insert into sealed segment succeeded")
	}
	if _, err := mem.Delete(geom.Vector{1, 2, 3}, 999); err == nil {
		t.Fatal("delete from sealed segment succeeded")
	}

	// Compact: harvest, bulk load to a pagefile, reopen as a file segment.
	harvest, err := CollectPoints(mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(harvest) != len(pts) {
		t.Fatalf("harvested %d points, want %d", len(harvest), len(pts))
	}
	merged := buildTree(t, harvest, dim)
	path := filepath.Join(t.TempDir(), pagefile.SegmentFileName(1))
	if err := pagefile.Save(path, merged); err != nil {
		t.Fatal(err)
	}
	file, err := OpenFile(path, am.Options{}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}

	q := geom.Vector{50, 50, 50}
	before, err := stack.SearchKNN(context.Background(), q, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	stack.Replace([]Segment{mem}, file, false)
	if n := len(stack.Segments()); n != 1 {
		t.Fatalf("%d segments after Replace, want 1", n)
	}
	after, err := stack.SearchKNN(context.Background(), q, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, after, before, "post-swap")

	st := stack.SegmentStats()
	if len(st) != 1 || st[0].Mutable || st[0].Len != len(pts) || st[0].SizeBytes == 0 {
		t.Fatalf("segment stats = %+v", st)
	}
}

// CollectPoints applies tombstone masks when given them (the full-
// compaction harvest) and ignores them when not (representation change).
func TestCollectPointsMasking(t *testing.T) {
	const dim = 2
	seg := WrapMem(buildTree(t, []gist.Point{
		{Key: geom.Vector{1, 1}, RID: 1},
		{Key: geom.Vector{2, 2}, RID: 2},
		{Key: geom.Vector{3, 3}, RID: 3},
	}, dim), 5)

	masked, err := CollectPoints(seg, map[int64]uint64{2: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(masked) != 2 {
		t.Fatalf("masked harvest has %d points, want 2", len(masked))
	}
	// Watermark at or below the segment's gen does not mask.
	kept, err := CollectPoints(seg, map[int64]uint64{2: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("harvest with stale tombstone has %d points, want 3", len(kept))
	}
}

// gridPoints places n points on the integer grid {0..side-1}^dim, so
// distances repeat and many neighbours tie exactly at every k.
func gridPoints(rng *rand.Rand, n, dim, side int) []gist.Point {
	pts := make([]gist.Point, n)
	for i := range pts {
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = float64(rng.Intn(side))
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	return pts
}

// Exact distance ties must break by RID in every tier: a one-segment stack
// (the engine's own order) and a two-segment stack (the (Dist2, RID) merge)
// over the same tie-heavy points return the same sequence.
func TestStackTiesBreakByRID(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 5
	all := gridPoints(rng, 3000, dim, 6)
	one := NewStack([]Segment{WrapMem(buildTree(t, all, dim), 1)}, nil)
	defer one.Close()
	var even, odd []gist.Point
	for _, p := range all {
		if p.RID%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	two := NewStack([]Segment{WrapMem(buildTree(t, even, dim), 1), WrapMem(buildTree(t, odd, dim), 2)}, nil)
	defer two.Close()
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		q := all[rng.Intn(len(all))].Key.Clone()
		q[trial%dim] += 0.5
		for _, k := range []int{1, 7, 37, 200} {
			want, err := one.SearchKNN(ctx, q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := two.SearchKNN(ctx, q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, got, want, "two segments vs one")
		}
	}
}
