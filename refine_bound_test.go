package blobindex

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"blobindex/internal/blobworld"
	"blobindex/internal/geom"
	"blobindex/internal/nn"
)

// solveDense solves a·x = b by Gaussian elimination with partial pivoting,
// a reference independent of the bound's banded and Cholesky arithmetic.
func solveDense(a [][]float64, b []float64) []float64 {
	n := len(b)
	w := make([][]float64, n)
	for i := range w {
		w[i] = append(append(make([]float64, 0, n+1), a[i]...), b[i])
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(w[r][c]) > math.Abs(w[p][c]) {
				p = r
			}
		}
		w[c], w[p] = w[p], w[c]
		for r := c + 1; r < n; r++ {
			f := w[r][c] / w[c][c]
			for j := c; j <= n; j++ {
				w[r][j] -= f * w[c][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := w[i][n]
		for j := i + 1; j < n; j++ {
			s -= w[i][j] * x[j]
		}
		x[i] = s / w[i][i]
	}
	return x
}

// qfMinimisers returns a function mapping an index-space difference u to
// e* = A⁻¹PᵀMu, the full-space difference of least quadratic form that
// projects to u: a feature at q − e* has QFDist2 to q equal to its bound.
func qfMinimisers(comp [][]float64) func(u []float64) []float64 {
	n, d := len(comp[0]), len(comp)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := max(0, i-2); j <= min(n-1, i+2); j++ {
			a[i][j] = [3]float64{1, 0.35, 0.10}[max(i-j, j-i)]
		}
	}
	z := make([][]float64, d) // zᵢ = A⁻¹pᵢ
	for i := range z {
		z[i] = solveDense(a, comp[i])
	}
	g := make([][]float64, d)
	for i := range g {
		g[i] = make([]float64, d)
		for j := range g[i] {
			for k := 0; k < n; k++ {
				g[i][j] += comp[i][k] * z[j][k]
			}
		}
	}
	return func(u []float64) []float64 {
		lambda := solveDense(g, u) // Mu
		e := make([]float64, n)
		for i, l := range lambda {
			for k := range e {
				e[k] += l * z[i][k]
			}
		}
		return e
	}
}

// boundFixture is a corpus on which the refine bound is tight at the
// margin: around the query q0 sit tightCount features at q0 − e*(u) for
// random index-space directions u, scaled so their quadratic-form distances
// to q0 — each equal to its bound — climb in steps of 1e-7 relative, each
// stored three times under distinct RIDs so every rank K straddles a group
// of exact ties; behind them lie background uniform features.
func boundFixture(t *testing.T) (feats [][]float64, red *Reducer, q0 []float64) {
	t.Helper()
	const (
		fullDim, indexDim = 32, 4
		background        = 1500
		tightCount        = 150
	)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < background; i++ {
		f := make([]float64, fullDim)
		for d := range f {
			f[d] = rng.Float64()
		}
		feats = append(feats, f)
	}
	red, err := FitReducer(feats, indexDim)
	if err != nil {
		t.Fatal(err)
	}
	q0 = make([]float64, fullDim)
	for d := range q0 {
		q0[d] = 0.5 + 0.05*rng.NormFloat64()
	}
	minimiser := qfMinimisers(red.pca.Components)
	for i := 0; i < tightCount; i++ {
		u := make([]float64, indexDim)
		for d := range u {
			u[d] = rng.NormFloat64()
		}
		e := minimiser(u)
		zero := make(geom.Vector, fullDim)
		s := math.Sqrt(0.01 * (1 + 1e-7*float64(i)) / blobworld.QFDist2(geom.Vector(e), zero))
		f := make([]float64, fullDim)
		for d := range f {
			f[d] = q0[d] - s*e[d]
		}
		for c := 0; c < 3; c++ {
			feats = append(feats, f)
		}
	}
	return feats, red, q0
}

// refineReference answers a refined k-NN search the way the refine stage
// did before the bound: the same filter-stage candidates, every one scored
// by QFDist2 over its stored feature, then nn.TopK.
func refineReference(t *testing.T, ix *Index, q []float64, k, mult int) []Neighbor {
	t.Helper()
	proj := ix.side.Project(q, nil)
	res, err := ix.stack.SearchKNN(context.Background(), geom.Vector(proj), k*mult, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		feat, err := ix.side.Feature(res[i].RID, nil)
		if err != nil {
			t.Fatal(err)
		}
		res[i].Dist2 = blobworld.QFDist2(geom.Vector(q), geom.Vector(feat))
	}
	return appendNeighbors(nil, nn.TopK(res, k))
}

// TestRefineBoundMatchesFullScoring pins the pruned refine stage to the
// full one bit for bit — RIDs, distances and keys, in order — on a corpus
// where the bound is attained and distances tie across rank K, for a built
// index and for a paged file index whose sidecar pool is smaller than a
// query's page set. It also checks the stage's counts: a range request
// scores every candidate, a k-NN request at least K of them.
func TestRefineBoundMatchesFullScoring(t *testing.T) {
	feats, red, q0 := boundFixture(t)
	n := len(feats)
	pts := make([]Point, n)
	rids := make([]int64, n)
	for i, f := range feats {
		pts[i] = Point{Key: red.Reduce(f), RID: int64(i)}
		rids[i] = int64(i)
	}
	built, err := Build(pts, Options{Method: XJB, Dim: 4, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	side := filepath.Join(dir, "side")
	if err := SaveSidecar(side, 4096, red, rids, feats); err != nil {
		t.Fatal(err)
	}
	if err := built.AttachRefine(side, 64); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "idx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenWithOptions(path, OpenOptions{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if err := paged.AttachRefine(side, 4); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(67))
	near := make([]float64, len(q0))
	for d := range near {
		near[d] = q0[d] + 1e-4*rng.NormFloat64()
	}
	queries := [][]float64{q0, near, feats[7]}
	ctx := context.Background()
	var saved int
	for _, ix := range []*Index{built, paged} {
		for qi, q := range queries {
			for _, k := range []int{1, 20, 200} {
				for _, mult := range []int{1, 3, 12, n/k + 1} {
					resp, err := ix.Search(ctx, SearchRequest{Query: q, K: k, Refine: true, Multiplier: mult})
					if err != nil {
						t.Fatal(err)
					}
					want := refineReference(t, ix, q, k, mult)
					if len(resp.Neighbors) != len(want) {
						t.Fatalf("query %d k=%d ×%d: %d neighbors, want %d", qi, k, mult, len(resp.Neighbors), len(want))
					}
					for r, nb := range resp.Neighbors {
						w := want[r]
						if nb.RID != w.RID || math.Float64bits(nb.Dist2) != math.Float64bits(w.Dist2) || !slicesEqual(nb.Key, w.Key) {
							t.Fatalf("query %d k=%d ×%d rank %d: (rid %d, dist2 %v), want (rid %d, dist2 %v)",
								qi, k, mult, r, nb.RID, nb.Dist2, w.RID, w.Dist2)
						}
					}
					st := resp.Refine
					if st.Candidates != resp.Filter.Candidates || st.Scored < min(k, st.Candidates) || st.Scored > st.Candidates {
						t.Fatalf("query %d k=%d ×%d: scored %d of %d candidates (filter %d)",
							qi, k, mult, st.Scored, st.Candidates, resp.Filter.Candidates)
					}
					saved += st.Candidates - st.Scored
				}
			}
			resp, err := ix.Search(ctx, SearchRequest{Query: q, Radius: 0.5, Refine: true})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Refine.Scored != resp.Refine.Candidates || resp.Refine.Candidates != len(resp.Neighbors) {
				t.Fatalf("range query %d: scored %d of %d candidates, %d neighbors",
					qi, resp.Refine.Scored, resp.Refine.Candidates, len(resp.Neighbors))
			}
		}
	}
	if saved == 0 {
		t.Fatal("the bound excluded no candidate anywhere: the comparison proves nothing")
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
