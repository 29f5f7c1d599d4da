package blobindex

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
)

// gridKey draws a key on a small integer grid, so that distances tie
// exactly and keys repeat.
func gridKey(rng *rand.Rand, dim, side int) []float64 {
	k := make([]float64, dim)
	for i := range k {
		k[i] = float64(rng.Intn(side))
	}
	return k
}

// TestStackSearchMatchesModel draws seeded segment stacks through the public
// write API — file segments, frozen memory segments awaiting compaction and
// an active memory segment, with deletes of sealed points (tombstones),
// deletes in the active segment, and RIDs deleted and re-inserted, in the
// same generation as the delete or a later one — and holds every k-NN
// answer to brute force over the live points: RID for RID, Dist2 bit for
// bit, for k from 1 to beyond the live count. Keys lie on an integer grid,
// so distances tie exactly and the (Dist2, RID) order decides; a frontier
// that prunes subtrees at the k-th distance, or a tombstone mask that is
// missing or inclusive of the watermark's generation, fails it.
func TestStackSearchMatchesModel(t *testing.T) {
	const dim, side = 3, 7
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		method := []Method{RTree, XJB}[seed%2]
		ix, err := CreateOnline(t.TempDir(), Options{Method: method, Dim: dim, PageSize: 1024}, OnlineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		live := map[int64][]float64{}
		var dead []int64 // deleted RIDs, each re-insertable
		nextRID := int64(0)
		pickLive := func() int64 {
			rids := make([]int64, 0, len(live))
			for rid := range live {
				rids = append(rids, rid)
			}
			slices.Sort(rids) // map order is random; sort for a seeded pick
			return rids[rng.Intn(len(rids))]
		}
		insert := func(rid int64, key []float64) {
			if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
				t.Fatal(err)
			}
			live[rid] = key
		}
		segments := 1 + rng.Intn(30)
		for s := 0; s < segments; s++ {
			n := 5 + rng.Intn(30)
			if s == 0 {
				n = 100 + rng.Intn(300) // a multi-level base segment
			}
			for ; n > 0; n-- {
				switch r := rng.Intn(10); {
				case r < 6 || len(live) == 0:
					insert(nextRID, gridKey(rng, dim, side))
					nextRID++
				case r < 8:
					rid := pickLive()
					if ok, err := ix.Delete(live[rid], rid); err != nil || !ok {
						t.Fatalf("seed %d: delete %d = %v, %v", seed, rid, ok, err)
					}
					delete(live, rid)
					dead = append(dead, rid)
				case len(dead) > 0:
					i := rng.Intn(len(dead))
					rid := dead[i]
					dead = append(dead[:i], dead[i+1:]...)
					insert(rid, gridKey(rng, dim, side))
				}
			}
			if s == segments-1 {
				break
			}
			if err := ix.SealActive(); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) > 0 {
				if err := ix.CompactPending(); err != nil {
					t.Fatal(err)
				}
			}
		}
		pts := make([]gist.Point, 0, len(live))
		for rid, key := range live {
			pts = append(pts, gist.Point{Key: key, RID: rid})
		}
		for trial := 0; trial < 8; trial++ {
			q := gridKey(rng, dim, side)
			if trial%2 == 1 {
				q[trial%dim] += 0.5
			}
			for _, k := range []int{1, 7, 200, len(live) + 3} {
				want := nn.BruteForce(pts, geom.Vector(q), k)
				resp, err := ix.Search(ctx, SearchRequest{Query: q, K: k})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d (%s, %d segments, %d tombstones), q %v, k %d",
					seed, method, len(ix.SegmentInfos()), ix.stack.NumTombstones(), q, k)
				if len(resp.Neighbors) != len(want) {
					t.Fatalf("%s: %d results, want %d", label, len(resp.Neighbors), len(want))
				}
				for i, w := range want {
					g := resp.Neighbors[i]
					if g.RID != w.RID || math.Float64bits(g.Dist2) != math.Float64bits(w.Dist2) {
						t.Fatalf("%s: result %d = (%d, %v), want (%d, %v)", label, i, g.RID, g.Dist2, w.RID, w.Dist2)
					}
				}
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// stackFixture builds a durable index whose stack holds `segments`
// segments: a file segment of base points, segments-2 file segments of
// perSeal points each, every seal also deleting deletes earlier points
// (tombstones), and an active memory segment of perSeal points. Keys are
// uniform in [0,1)^dim and RIDs are dense from 0.
func stackFixture(tb testing.TB, segments, base, perSeal, deletes, dim int) *Index {
	tb.Helper()
	ix, err := CreateOnline(tb.TempDir(), Options{Method: XJB, Dim: dim}, OnlineOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(segments)))
	keys := make([][]float64, 0, base+(segments-1)*perSeal)
	add := func(n int) {
		for ; n > 0; n-- {
			key := randKey(rng, dim)
			if err := ix.Insert(Point{Key: key, RID: int64(len(keys))}); err != nil {
				tb.Fatal(err)
			}
			keys = append(keys, key)
		}
	}
	seal := func() {
		if err := ix.SealActive(); err != nil {
			tb.Fatal(err)
		}
		if err := ix.CompactPending(); err != nil {
			tb.Fatal(err)
		}
	}
	add(base)
	seal()
	for s := 2; s < segments; s++ {
		add(perSeal)
		for d := 0; d < deletes; d++ {
			rid := rng.Intn(len(keys))
			if _, err := ix.Delete(keys[rid], int64(rid)); err != nil {
				tb.Fatal(err)
			}
		}
		seal()
	}
	add(perSeal)
	if got := len(ix.SegmentInfos()); got != segments {
		tb.Fatalf("fixture holds %d segments, want %d", got, segments)
	}
	return ix
}

// TestStackSearchSteadyStateZeroAlloc extends the one-tree engine's
// zero-allocation gate to a stacked index: sealed file segments with
// tombstones plus an active memory segment, searched through the facade
// with a reused dst. Under -race the alloc count is skipped (sync.Pool drops
// items randomly there).
func TestStackSearchSteadyStateZeroAlloc(t *testing.T) {
	const k = 50
	ix := stackFixture(t, 6, 600, 150, 20, 3)
	defer ix.Close()
	if ix.stack.NumTombstones() == 0 {
		t.Fatal("fixture has no tombstones")
	}
	rng := rand.New(rand.NewSource(3))
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = randKey(rng, 3)
	}
	dst := make([]Neighbor, 0, k)
	i := 0
	run := func() {
		resp, err := ix.SearchInto(nil, SearchRequest{Query: queries[i%len(queries)], K: k}, dst[:0])
		if err != nil || len(resp.Neighbors) != k {
			t.Fatalf("%d results, err %v", len(resp.Neighbors), err)
		}
		dst = resp.Neighbors
		i++
	}
	for j := 0; j < 32; j++ {
		run()
	}
	if raceEnabled {
		return
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("steady-state stacked search: %.1f allocs/op, want 0", avg)
	}
}

// insertingCtx is a context whose first Err poll — the engine polls once per
// visited node — runs an Insert to completion before the search goes on.
type insertingCtx struct {
	context.Context
	once    sync.Once
	ix      *Index
	polled  bool
	blocked bool
	err     error
}

func (c *insertingCtx) Err() error {
	c.once.Do(func() {
		c.polled = true
		done := make(chan error, 1)
		go func() { done <- c.ix.Insert(Point{Key: []float64{0.5, 0.5, 0.5}, RID: 1 << 40}) }()
		select {
		case c.err = <-done:
		case <-time.After(time.Second):
			c.blocked = true
		}
	})
	return nil
}

// TestStackSearchDoesNotBlockWriter pins why the stacked k-NN searches the
// active memory segment apart: an Insert issued while the search descends
// the sealed segments (the engine's first ctx poll) must complete, because
// that phase holds no lock on the writer's segment. Read-locking the active
// segment for the whole search would make Insert wait for it.
func TestStackSearchDoesNotBlockWriter(t *testing.T) {
	ix := stackFixture(t, 4, 300, 100, 10, 3)
	defer ix.Close()
	ctx := &insertingCtx{Context: context.Background(), ix: ix}
	resp, err := ix.Search(ctx, SearchRequest{Query: []float64{0.5, 0.5, 0.5}, K: 20})
	if err != nil || len(resp.Neighbors) != 20 {
		t.Fatalf("%d results, err %v", len(resp.Neighbors), err)
	}
	switch {
	case !ctx.polled:
		t.Fatal("the search never polled its context")
	case ctx.blocked:
		t.Fatal("Insert was blocked for 1 s by a stacked search")
	case ctx.err != nil:
		t.Fatal(ctx.err)
	}
}
