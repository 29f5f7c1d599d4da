package blobworld

import (
	"math"
	"math/rand"
	"testing"

	"blobindex/internal/geom"
)

// denseA returns the n×n banded similarity matrix QFDist2 evaluates.
func denseA(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := max(0, i-2); j <= min(n-1, i+2); j++ {
			switch i - j {
			case 0:
				a[i][j] = 1
			case 1, -1:
				a[i][j] = band1
			default:
				a[i][j] = band2
			}
		}
	}
	return a
}

// invert returns the inverse of a square matrix by Gauss–Jordan elimination
// with partial pivoting — a reference independent of NewQFBound's banded
// and Cholesky arithmetic.
func invert(a [][]float64) [][]float64 {
	n := len(a)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, 2*n)
		copy(w[i], a[i])
		w[i][n+i] = 1
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(w[r][c]) > math.Abs(w[p][c]) {
				p = r
			}
		}
		w[c], w[p] = w[p], w[c]
		inv := 1 / w[c][c]
		for j := range w[c] {
			w[c][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r != c && w[r][c] != 0 {
				f := w[r][c]
				for j := range w[r] {
					w[r][j] -= f * w[c][j]
				}
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = w[i][n:]
	}
	return out
}

// projectKey is the sidecar's and svd.PCA.Project's key arithmetic.
func projectKey(mean, comp, x []float64) []float64 {
	n := len(mean)
	out := make([]float64, len(comp)/n)
	for i := range out {
		var acc float64
		for j, p := range comp[i*n : (i+1)*n] {
			acc += p * (x[j] - mean[j])
		}
		out[i] = acc
	}
	return out
}

// boundCase is one projection the bound is exercised on.
type boundCase struct {
	name string
	d, n int
	comp []float64
	mean []float64
}

// boundCases builds, for each full dimensionality, random full-rank
// projections (Gaussian, and orthonormal like an SVD's) of every index
// dimensionality up to 5, with means holding negative entries.
func boundCases(rng *rand.Rand) []boundCase {
	var cs []boundCase
	for _, n := range []int{1, 2, 5, 218} {
		for _, d := range []int{1, 2, 5} {
			if d > n {
				continue
			}
			for _, ortho := range []bool{false, true} {
				comp := make([]float64, d*n)
				for i := range comp {
					comp[i] = rng.NormFloat64()
				}
				if ortho {
					for i := 0; i < d; i++ {
						row := comp[i*n : (i+1)*n]
						for k := 0; k < i; k++ {
							prev := comp[k*n : (k+1)*n]
							c := dot(row, prev)
							for j := range row {
								row[j] -= c * prev[j]
							}
						}
						s := 1 / math.Sqrt(dot(row, row))
						for j := range row {
							row[j] *= s
						}
					}
				}
				mean := make([]float64, n)
				for j := range mean {
					mean[j] = rng.NormFloat64()
				}
				name := "gauss"
				if ortho {
					name = "ortho"
				}
				cs = append(cs, boundCase{name: name, d: d, n: n, comp: comp, mean: mean})
			}
		}
	}
	return cs
}

// reference returns G = P A⁻¹ Pᵀ by dense arithmetic, and A⁻¹.
func (c boundCase) reference() (g, ainv [][]float64) {
	ainv = invert(denseA(c.n))
	g = make([][]float64, c.d)
	for i := range g {
		g[i] = make([]float64, c.d)
		for j := range g[i] {
			for k := 0; k < c.n; k++ {
				for l := 0; l < c.n; l++ {
					g[i][j] += c.comp[i*c.n+k] * ainv[k][l] * c.comp[j*c.n+l]
				}
			}
		}
	}
	return g, ainv
}

// minimiser returns e* = A⁻¹PᵀMu, the difference of least quadratic form
// among those that project to u.
func minimiser(b *QFBound, c boundCase, ainv [][]float64, u []float64) []float64 {
	mu := make([]float64, c.d)
	for i := range mu {
		for j := range u {
			mu[i] += b.m[i*c.d+j] * u[j]
		}
	}
	v := make([]float64, c.n)
	for k := range v {
		for i := range mu {
			v[k] += c.comp[i*c.n+k] * mu[i]
		}
	}
	e := make([]float64, c.n)
	for k := range e {
		for l := range v {
			e[k] += ainv[k][l] * v[l]
		}
	}
	return e
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(math.Abs(want), 1e-300)
}

// M is the inverse of P A⁻¹ Pᵀ, and the minimiser e* = A⁻¹PᵀMu projects to
// u and attains uᵀMu: the bound is the tightest u alone can give.
func TestQFBoundInvertsGramAndIsAttained(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range boundCases(rng) {
		b := NewQFBound(c.mean, c.comp)
		if b.m == nil {
			t.Fatalf("%s d=%d n=%d: no bound for a full-rank projection", c.name, c.d, c.n)
		}
		g, ainv := c.reference()
		for i := 0; i < c.d; i++ {
			for j := 0; j < c.d; j++ {
				var mg float64
				for k := 0; k < c.d; k++ {
					mg += b.m[i*c.d+k] * g[k][j]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(mg-want) > 1e-9 {
					t.Fatalf("%s d=%d n=%d: (M·G)[%d][%d] = %v", c.name, c.d, c.n, i, j, mg)
				}
			}
		}
		if b.scale < 1 || b.scale > 1+1e-9 {
			t.Fatalf("%s d=%d n=%d: verified ρ(M̂G) bound %v, want within 1e-9 above 1", c.name, c.d, c.n, b.scale)
		}
		zero := make([]float64, c.d)
		for trial := 0; trial < 5; trial++ {
			u := make([]float64, c.d)
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			e := minimiser(b, c, ainv, u)
			pe := projectKey(make([]float64, c.n), c.comp, e)
			for i := range u {
				if math.Abs(pe[i]-u[i]) > 1e-9*math.Max(1, math.Abs(u[i])) {
					t.Fatalf("%s d=%d n=%d: P·e*[%d] = %v, want %v", c.name, c.d, c.n, i, pe[i], u[i])
				}
			}
			bound := b.Dist2(u, zero)
			qf := QFDist2(geom.Vector(e), make(geom.Vector, c.n))
			if !relClose(qf, bound, 1e-9) {
				t.Fatalf("%s d=%d n=%d: e*ᵀAe* = %v, uᵀMu = %v", c.name, c.d, c.n, qf, bound)
			}
		}
	}
}

// Exceeds never claims a computed QFDist2 above τ when it is at most τ —
// checked at τ equal to the computed distance, the tightest threshold —
// over near-duplicates, differences orthogonal to P, differences at the
// bound's minimiser, and random pairs, at feature scales 1e-6, 1 and 1e6.
// At the minimiser the bound is attained, so there a τ only 1e-6 below the
// distance must be pruned: the margin costs nothing measurable.
func TestQFBoundExceedsIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var tight, fired int
	for _, c := range boundCases(rng) {
		_, ainv := c.reference()
		for _, scale := range []float64{1e-6, 1, 1e6} {
			mean := make([]float64, c.n)
			for j := range mean {
				mean[j] = c.mean[j] * scale
			}
			b := NewQFBound(mean, c.comp)
			for trial := 0; trial < 40; trial++ {
				q := make([]float64, c.n)
				for j := range q {
					q[j] = mean[j] + scale*rng.NormFloat64()
				}
				e := make([]float64, c.n)
				kind := trial % 4
				switch kind {
				case 0: // near-duplicate
					for j := range e {
						e[j] = 1e-9 * scale * rng.NormFloat64()
					}
				case 1: // orthogonal to P (when P has a null space)
					for j := range e {
						e[j] = scale * rng.NormFloat64()
					}
					if c.name == "ortho" {
						for i := 0; i < c.d; i++ {
							row := c.comp[i*c.n : (i+1)*c.n]
							s := dot(e, row)
							for j := range e {
								e[j] -= s * row[j]
							}
						}
					}
				case 2: // at the minimiser: the bound is attained
					u := make([]float64, c.d)
					for i := range u {
						u[i] = scale * rng.NormFloat64()
					}
					e = minimiser(b, c, ainv, u)
				default:
					for j := range e {
						e[j] = scale * rng.NormFloat64()
					}
				}
				f := make([]float64, c.n)
				for j := range f {
					f[j] = q[j] - e[j]
				}
				qf := QFDist2(geom.Vector(q), geom.Vector(f))
				bound := b.Dist2(projectKey(mean, c.comp, q), projectKey(mean, c.comp, f))
				off := b.Offset(q)
				for _, tau := range []float64{qf, math.Nextafter(qf, math.Inf(1)), qf * (1 + 1e-12)} {
					if b.Exceeds(bound, tau, off) {
						t.Fatalf("%s d=%d n=%d scale %g kind %d: bound %v exceeds τ=%v, but QFDist2 = %v",
							c.name, c.d, c.n, scale, kind, bound, tau, qf)
					}
				}
				if kind == 2 {
					tight++
					if b.Exceeds(bound, qf*(1-1e-6), off) {
						fired++
					}
				}
			}
		}
	}
	if fired != tight {
		t.Fatalf("the attained bound pruned %d of %d thresholds 1e-6 below the distance", fired, tight)
	}
}

// A projection whose Gram matrix is not positive definite has no bound:
// Dist2 is 0 and Exceeds never fires.
func TestQFBoundDegenerateProjection(t *testing.T) {
	const n = 8
	mean := make([]float64, n)
	for _, comp := range [][]float64{
		make([]float64, 2*n), // two zero components
		append(make([]float64, n), []float64{1, 0, 0, 0, 0, 0, 0, 0}...), // one zero component
	} {
		b := NewQFBound(mean, comp)
		x, y := []float64{3, 4}, []float64{-3, 1}
		if got := b.Dist2(x, y); got != 0 {
			t.Fatalf("Dist2 = %v on a rank-deficient projection, want 0", got)
		}
		if b.Exceeds(math.MaxFloat64, 0, 0) {
			t.Fatal("Exceeds fired on a rank-deficient projection")
		}
	}
}
