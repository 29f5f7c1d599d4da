package blobindex

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenSearchDigest is the SHA-256 of the full facade search behavior —
// k-NN and range result sets (RIDs, distances and keys, in order) for all
// six access methods over a seeded corpus — captured on the pre-SearchRequest
// implementation, where SearchKNN/SearchRange ran their own dedicated paths.
// The unified Search(ctx, SearchRequest) pipeline must reproduce it byte for
// byte: a Refine:false request is contractually bit-identical to what the
// old entry points returned.
const goldenSearchDigest = "49ccb3cc3e00140c04d6cf974cbcefe6b18faf95637603eccbaec2ad89530241"

// goldenCorpus builds the seeded 5-D point set and query workload the digest
// is defined over: mildly clustered coordinates (so JB/XJB bites exist) with
// both k-NN and range queries centered on data points.
func goldenCorpus() (pts []Point, queries [][]float64) {
	const (
		n      = 2400
		dim    = 5
		nQuery = 20
	)
	rng := rand.New(rand.NewSource(20240806))
	pts = make([]Point, n)
	for i := range pts {
		key := make([]float64, dim)
		for d := range key {
			key[d] = math.Floor(rng.Float64()*8)/8 + rng.Float64()*0.125
		}
		pts[i] = Point{Key: key, RID: int64(i)}
	}
	queries = make([][]float64, nQuery)
	for i := range queries {
		q := make([]float64, dim)
		copy(q, pts[rng.Intn(n)].Key)
		queries[i] = q
	}
	return pts, queries
}

// hashNeighbors folds one result set into the digest.
func hashNeighbors(wr func(vals ...uint64), res []Neighbor) {
	wr(uint64(len(res)))
	for _, nb := range res {
		wr(uint64(nb.RID), math.Float64bits(nb.Dist))
		for _, c := range nb.Key {
			wr(math.Float64bits(c))
		}
	}
}

// searchDigest runs the golden workload through the given searchers and
// returns the hex digest.
func searchDigest(t *testing.T, knn func(ix *Index, q []float64, k int) []Neighbor,
	rng func(ix *Index, q []float64, radius float64) []Neighbor) string {
	t.Helper()
	pts, queries := goldenCorpus()
	h := sha256.New()
	wr := func(vals ...uint64) {
		var buf [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	for _, m := range Methods() {
		ix, err := Build(pts, Options{Method: m, Dim: 5, PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(m))
		for _, q := range queries {
			hashNeighbors(wr, knn(ix, q, 50))
			hashNeighbors(wr, rng(ix, q, 0.2))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSearchKNNDigest pins the legacy entry points to the recorded
// pre-refactor behavior.
func TestGoldenSearchKNNDigest(t *testing.T) {
	got := searchDigest(t,
		func(ix *Index, q []float64, k int) []Neighbor { return ix.SearchKNN(q, k) },
		func(ix *Index, q []float64, radius float64) []Neighbor { return ix.SearchRange(q, radius) },
	)
	if got != goldenSearchDigest {
		t.Fatalf("SearchKNN/SearchRange digest drifted:\n got  %s\n want %s", got, goldenSearchDigest)
	}
}

// TestGoldenSearchRequestDigest proves a Refine:false SearchRequest is
// bit-identical to the pre-PR SearchKNN/SearchRange across all six access
// methods: the unified pipeline reproduces the recorded digest exactly.
func TestGoldenSearchRequestDigest(t *testing.T) {
	ctx := context.Background()
	got := searchDigest(t,
		func(ix *Index, q []float64, k int) []Neighbor {
			resp, err := ix.Search(ctx, SearchRequest{Query: q, K: k})
			if err != nil {
				t.Fatal(err)
			}
			return resp.Neighbors
		},
		func(ix *Index, q []float64, radius float64) []Neighbor {
			resp, err := ix.Search(ctx, SearchRequest{Query: q, Radius: radius})
			if err != nil {
				t.Fatal(err)
			}
			return resp.Neighbors
		},
	)
	if got != goldenSearchDigest {
		t.Fatalf("Search(SearchRequest) digest drifted from the pre-refactor recording:\n got  %s\n want %s", got, goldenSearchDigest)
	}
}

// goldenRefineDigest is the SHA-256 over (RID, Float64bits(Dist2)) of every
// neighbor of a seeded refined workload — k-NN and range, through a pool far
// smaller than the sidecar — recorded on sidecar format v1 (RID-ordered
// pages, one Feature copy per candidate). Refined answers are a function of
// the stored features and QFDist2 alone, so no sidecar layout or read-path
// change may move it.
const goldenRefineDigest = "c4f261074c02cf8e69683269b3559d6dc28c4f0719b8296ddc8099fb2bf3acc5"

func TestGoldenRefineDigest(t *testing.T) {
	const (
		n        = 2000
		fullDim  = 48
		indexDim = 5
	)
	ix, feats := refineFixture(t, n, fullDim, indexDim)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260925))
	h := sha256.New()
	wr := func(vals ...uint64) {
		var buf [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	hash := func(resp SearchResponse, err error) {
		if err != nil {
			t.Fatal(err)
		}
		wr(uint64(len(resp.Neighbors)))
		for _, nb := range resp.Neighbors {
			wr(uint64(nb.RID), math.Float64bits(nb.Dist2))
		}
	}
	for i := 0; i < 24; i++ {
		q := make([]float64, fullDim)
		for d, v := range feats[rng.Intn(n)] {
			q[d] = v + 0.05*rng.NormFloat64()
		}
		hash(ix.Search(ctx, SearchRequest{Query: q, K: 20, Refine: true, Multiplier: 6}))
		hash(ix.Search(ctx, SearchRequest{Query: q, K: 5, Refine: true}))
		hash(ix.Search(ctx, SearchRequest{Query: q, Radius: 0.35, Refine: true}))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRefineDigest {
		t.Fatalf("refined search digest drifted from the sidecar-v1 recording:\n got  %s\n want %s", got, goldenRefineDigest)
	}
}
