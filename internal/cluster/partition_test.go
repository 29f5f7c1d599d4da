package cluster

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"blobindex"
	"blobindex/internal/wire"
)

// clusterCorpus builds a deterministic, mildly clustered point set (so the
// bite-based methods have corners to carve) plus mixed k-NN/range queries
// centered on data points — ties included, since duplicated coordinates are
// exactly where a sloppy merge order would diverge.
func clusterCorpus(n, dim int, seed int64) ([]blobindex.Point, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]blobindex.Point, n)
	for i := range pts {
		key := make([]float64, dim)
		for d := range key {
			key[d] = math.Floor(rng.Float64()*8)/8 + rng.Float64()*0.125
		}
		pts[i] = blobindex.Point{Key: key, RID: int64(i)}
	}
	queries := make([][]float64, 12)
	for i := range queries {
		q := make([]float64, dim)
		copy(q, pts[rng.Intn(n)].Key)
		queries[i] = q
	}
	return pts, queries
}

func toWire(res []blobindex.Neighbor) []wire.Neighbor {
	out := make([]wire.Neighbor, len(res))
	for i, nb := range res {
		out[i] = wire.Neighbor{RID: nb.RID, Dist: nb.Dist, Dist2: nb.Dist2}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []wire.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].RID != want[i].RID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) ||
			math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
			t.Fatalf("%s: result %d diverges: got (rid %d, dist %x, dist2 %x), oracle (rid %d, dist %x, dist2 %x)",
				what, i,
				got[i].RID, math.Float64bits(got[i].Dist), math.Float64bits(got[i].Dist2),
				want[i].RID, math.Float64bits(want[i].Dist), math.Float64bits(want[i].Dist2))
		}
	}
}

// TestMergeIdentityAcrossPartitions is the cluster's core correctness
// property: for every access method and both partition schemes, scattering
// a query over any partition of the corpus and merging the per-shard
// results by (Dist2, RID) is byte-identical — RID and squared-distance
// bits — to the same query on the unpartitioned index.
func TestMergeIdentityAcrossPartitions(t *testing.T) {
	const dim = 5
	pts, queries := clusterCorpus(1500, dim, 20260807)
	opts := func(m blobindex.Method) blobindex.Options {
		return blobindex.Options{Method: m, Dim: dim, AMAPSamples: 64, Seed: 1}
	}
	ctx := context.Background()
	for _, method := range blobindex.Methods() {
		oracle, err := blobindex.Build(pts, opts(method))
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{PartitionHash, PartitionSpace} {
			for _, nShards := range []int{2, 3, 5} {
				groups, man, err := Partition(pts, scheme, nShards, 42, dim, string(method))
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", method, scheme, nShards, err)
				}
				part, err := PartitionerFor(man)
				if err != nil {
					t.Fatal(err)
				}
				shards := make([]*blobindex.Index, nShards)
				for i, g := range groups {
					// Ownership must be a pure function of the manifest:
					// every point in group i routes back to shard i.
					for _, p := range g {
						if o := part.Owner(p.Key, p.RID); o != i {
							t.Fatalf("%s/%d: point rid %d grouped into %d but owned by %d",
								scheme, nShards, p.RID, i, o)
						}
					}
					if shards[i], err = blobindex.Build(g, opts(method)); err != nil {
						t.Fatal(err)
					}
				}
				scatter := func(req blobindex.SearchRequest) [][]wire.Neighbor {
					lists := make([][]wire.Neighbor, nShards)
					for i, sh := range shards {
						resp, err := sh.Search(ctx, req)
						if err != nil {
							t.Fatalf("shard %d: %v", i, err)
						}
						lists[i] = toWire(resp.Neighbors)
					}
					return lists
				}
				for qi, q := range queries {
					for _, k := range []int{1, 10, 64} {
						req := blobindex.SearchRequest{Query: q, K: k}
						want, err := oracle.Search(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						got := Merge(scatter(req), k)
						sameBits(t, string(method)+"/"+scheme, got, toWire(want.Neighbors))
						_ = qi
					}
					for _, radius := range []float64{0.05, 0.2} {
						req := blobindex.SearchRequest{Query: q, Radius: radius}
						want, err := oracle.Search(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						got := Merge(scatter(req), 0)
						sameBits(t, string(method)+"/"+scheme+"/range", got, toWire(want.Neighbors))
					}
				}
			}
		}
	}
}

// TestWireRoundTripPreservesBits pins the encoding assumption the merge
// rests on: the daemons' float encoding is shortest-round-trippable, so
// Dist2 survives daemon → router bit for bit.
func TestWireRoundTripPreservesBits(t *testing.T) {
	const dim = 5
	pts, queries := clusterCorpus(400, dim, 7)
	idx, err := blobindex.Build(pts, blobindex.Options{Method: blobindex.XJB, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := idx.Search(context.Background(), blobindex.SearchRequest{Query: queries[0], K: 50})
	if err != nil {
		t.Fatal(err)
	}
	sent := toWire(resp.Neighbors)
	data, err := wire.AppendSearchResponse(nil, &wire.SearchResponse{Neighbors: sent})
	if err != nil {
		t.Fatal(err)
	}
	var back wire.SearchResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "json round trip", back.Neighbors, sent)
}

func TestHashPartitionSpreads(t *testing.T) {
	pts, _ := clusterCorpus(3000, 5, 99)
	groups, man, err := Partition(pts, PartitionHash, 4, 1, 5, "xjb")
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		if len(g) < 3000/4/2 {
			t.Fatalf("hash shard %d badly skewed: %d of 3000", i, len(g))
		}
		if man.Shards[i].Points != len(g) {
			t.Fatalf("manifest points mismatch on shard %d", i)
		}
	}
}

// TestPartitionSingleShard pins the degenerate-but-legal cluster: one shard
// owns everything under both schemes, and Owner never says otherwise.
func TestPartitionSingleShard(t *testing.T) {
	pts, _ := clusterCorpus(200, 5, 17)
	for _, scheme := range []string{PartitionHash, PartitionSpace} {
		groups, man, err := Partition(pts, scheme, 1, 3, 5, "xjb")
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if len(groups) != 1 || len(groups[0]) != len(pts) {
			t.Fatalf("%s: single shard does not hold the corpus: %d groups, %d points", scheme, len(groups), len(groups[0]))
		}
		if man.Shards[0].Points != len(pts) {
			t.Fatalf("%s: manifest points %d", scheme, man.Shards[0].Points)
		}
		part, err := PartitionerFor(man)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts[:20] {
			if o := part.Owner(p.Key, p.RID); o != 0 {
				t.Fatalf("%s: owner %d with one shard", scheme, o)
			}
		}
	}
}

// TestPartitionMoreShardsThanPoints: a shard that can never hold a point is
// a misconfiguration, rejected up front rather than surfacing later as an
// empty pagefile some daemon fails to serve.
func TestPartitionMoreShardsThanPoints(t *testing.T) {
	pts, _ := clusterCorpus(3, 5, 17)
	for _, scheme := range []string{PartitionHash, PartitionSpace} {
		if _, _, err := Partition(pts, scheme, 4, 3, 5, "xjb"); err == nil {
			t.Fatalf("%s: 3 points across 4 shards did not error", scheme)
		}
	}
}

// TestPartitionRejectsDuplicateRIDs: RIDs are the cluster-wide identity a
// delete or an oracle probe addresses; two points sharing one must be
// rejected before any shard is written.
func TestPartitionRejectsDuplicateRIDs(t *testing.T) {
	pts, _ := clusterCorpus(100, 5, 17)
	pts[63].RID = pts[12].RID
	for _, scheme := range []string{PartitionHash, PartitionSpace} {
		_, _, err := Partition(pts, scheme, 2, 3, 5, "xjb")
		if err == nil {
			t.Fatalf("%s: duplicate rid accepted", scheme)
		}
	}
}

// TestSpacePartitionBoundaryOwnership pins the half-open interval contract
// at the exact quantile boundaries: a coordinate equal to bounds[i] belongs
// to shard i+1 ([bounds[i-1], bounds[i]) ownership), one ULP below it to
// shard i — and the bulk partitioner's grouping agrees with Owner on both.
func TestSpacePartitionBoundaryOwnership(t *testing.T) {
	pts, _ := clusterCorpus(2000, 5, 123)
	groups, man, err := Partition(pts, PartitionSpace, 4, 1, 5, "xjb")
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionerFor(man)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]float64, 5)
	for i, b := range man.Bounds {
		key[man.SplitDim] = b
		if o := part.Owner(key, 1); o != i+1 {
			t.Fatalf("value exactly at bounds[%d]=%v owned by %d, want %d", i, b, o, i+1)
		}
		key[man.SplitDim] = math.Nextafter(b, math.Inf(-1))
		if o := part.Owner(key, 1); o != i {
			t.Fatalf("value one ULP below bounds[%d]=%v owned by %d, want %d", i, b, o, i)
		}
	}
	// The quantile boundaries are data values, so at least one real point sits
	// exactly on some boundary in a corpus this size; every such point must
	// have been grouped where Owner says it lives.
	onBoundary := 0
	for gi, g := range groups {
		for _, p := range g {
			v := p.Key[man.SplitDim]
			for bi, b := range man.Bounds {
				if v == b {
					onBoundary++
					if gi != bi+1 {
						t.Fatalf("rid %d sits on bounds[%d] but was grouped into shard %d, not %d", p.RID, bi, gi, bi+1)
					}
				}
			}
		}
	}
	if onBoundary == 0 {
		t.Fatal("no corpus point landed exactly on a quantile boundary; the test lost its teeth")
	}
}

func TestSpacePartitionRoutesByValue(t *testing.T) {
	pts, _ := clusterCorpus(2000, 5, 123)
	_, man, err := Partition(pts, PartitionSpace, 3, 1, 5, "xjb")
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionerFor(man)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh write with a key left of the first bound goes to shard 0,
	// right of the last bound to the last shard.
	lo := make([]float64, 5)
	hi := make([]float64, 5)
	for d := range lo {
		lo[d], hi[d] = -100, 100
	}
	if o := part.Owner(lo, 999999); o != 0 {
		t.Fatalf("low key owned by %d", o)
	}
	if o := part.Owner(hi, 999998); o != 2 {
		t.Fatalf("high key owned by %d", o)
	}
}
