package chaoscluster

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"blobindex"
	"blobindex/internal/cluster"
	"blobindex/internal/wire"
)

// oracle is the fault-free reference: one in-process index per shard plus
// the router's own (Dist2, RID) merge. It mirrors the cluster's computation
// shard for shard — per-shard refine candidate selection included — so
// every query class the router serves is byte-identical by construction,
// not merely set-equal. Results are structure-independent (every access
// method and segment layout produces the same exact (Dist2, RID) order), so
// plain in-memory indexes track the daemons' pagefiles and WAL-backed
// online directories exactly, writes and all.
type oracle struct {
	part   cluster.Partitioner
	shards []*blobindex.Index
	dim    int
}

// newOracle partitions the corpus with the manifest's own partitioner and
// builds one in-memory index per shard with the same options datagen used,
// attaching each shard's refine sidecar.
func newOracle(man *cluster.Manifest, points []blobindex.Point, seed int64, sidecars []string) (*oracle, error) {
	part, err := cluster.PartitionerFor(man)
	if err != nil {
		return nil, err
	}
	groups := make([][]blobindex.Point, len(man.Shards))
	for _, p := range points {
		s := part.Owner(p.Key, p.RID)
		groups[s] = append(groups[s], p)
	}
	opts := blobindex.Options{Method: blobindex.Method(man.Method), Dim: man.Dim, Seed: seed}
	o := &oracle{part: part, dim: man.Dim, shards: make([]*blobindex.Index, len(groups))}
	for i, g := range groups {
		idx, err := blobindex.Build(g, opts)
		if err != nil {
			return nil, fmt.Errorf("oracle shard %d: %w", i, err)
		}
		if i < len(sidecars) && sidecars[i] != "" {
			if err := idx.AttachRefine(sidecars[i], 0); err != nil {
				return nil, fmt.Errorf("oracle shard %d sidecar: %w", i, err)
			}
		}
		o.shards[i] = idx
	}
	return o, nil
}

func (o *oracle) insert(rid int64, key []float64) error {
	return o.shards[o.part.Owner(key, rid)].Insert(blobindex.Point{Key: key, RID: rid})
}

func (o *oracle) delete(rid int64, key []float64) error {
	_, err := o.shards[o.part.Owner(key, rid)].Delete(key, rid)
	return err
}

// refineDim reports the sidecar's full dimensionality.
func (o *oracle) refineDim() int {
	for _, s := range o.shards {
		if d, ok := s.RefineDim(); ok {
			return d
		}
	}
	return 0
}

// scatter runs req against every oracle shard and merges exactly as the
// router does. Any shard error fails the whole query, mirroring the
// router's all-or-nothing scatter.
func (o *oracle) scatter(ctx context.Context, req blobindex.SearchRequest, mergeK int) ([]wire.Neighbor, error) {
	lists := make([][]wire.Neighbor, len(o.shards))
	for i, s := range o.shards {
		resp, err := s.Search(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("oracle shard %d: %w", i, err)
		}
		lists[i] = toWire(resp.Neighbors)
	}
	return cluster.Merge(lists, mergeK), nil
}

func (o *oracle) knn(ctx context.Context, q []float64, k int) ([]wire.Neighbor, error) {
	return o.scatter(ctx, blobindex.SearchRequest{Query: q, K: k}, k)
}

func (o *oracle) rangeQuery(ctx context.Context, q []float64, radius float64) ([]wire.Neighbor, error) {
	return o.scatter(ctx, blobindex.SearchRequest{Query: q, Radius: radius}, 0)
}

// refine mirrors the router's refined k-NN: the full-dimensionality query
// goes to every shard, each shard picks and re-ranks its own K × Multiplier
// candidates against its sidecar, and the per-shard refined lists merge.
func (o *oracle) refine(ctx context.Context, q []float64, k, multiplier int) ([]wire.Neighbor, error) {
	return o.scatter(ctx, blobindex.SearchRequest{Query: q, K: k, Refine: true, Multiplier: multiplier}, k)
}

// toWire converts facade neighbors to the wire shape, keys included (the
// comparisons that need keys ask the daemons for them too).
func toWire(res []blobindex.Neighbor) []wire.Neighbor {
	out := make([]wire.Neighbor, len(res))
	for i, n := range res {
		out[i] = wire.Neighbor{RID: n.RID, Key: n.Key, Dist: n.Dist, Dist2: n.Dist2}
	}
	return out
}

// --- signature filtering (the RBIR-style post-filter both sides compute) ---

// sigThresholds derives per-dimension signature thresholds from the initial
// corpus: the median of each coordinate, frozen at setup so daemon and
// oracle agree bit for bit for the whole run.
func sigThresholds(points []blobindex.Point, dim int) []float64 {
	th := make([]float64, dim)
	col := make([]float64, len(points))
	for d := 0; d < dim; d++ {
		for i, p := range points {
			col[i] = p.Key[d]
		}
		sort.Float64s(col)
		th[d] = col[len(col)/2]
	}
	return th
}

// signature maps a key to its threshold bit vector.
func signature(key, th []float64) uint64 {
	var s uint64
	for d := range th {
		if key[d] > th[d] {
			s |= 1 << uint(d)
		}
	}
	return s
}

// sigFilter is the shared post-processing step: from an oversampled k-NN
// result list (keys required), keep the neighbors whose signature is within
// Hamming distance t of the query's, preserving (Dist2, RID) order, and
// truncate to k. Both the daemon-side and oracle-side lists run through
// this exact function, so the comparison checks the served candidates, not
// the filter itself.
func sigFilter(res []wire.Neighbor, qsig uint64, th []float64, t, k int) []wire.Neighbor {
	out := make([]wire.Neighbor, 0, k)
	for _, n := range res {
		if n.Key == nil {
			continue
		}
		if bits.OnesCount64(signature(n.Key, th)^qsig) <= t {
			out = append(out, n)
			if len(out) == k {
				break
			}
		}
	}
	return out
}
