package blobworld

import "math"

// Reduced-space lower bound of the quadratic form (Hafner et al. 1995, the
// paper's [11]; the filter-and-refine bound of the multi-step literature).
//
// The refine tier's index keys are a linear projection of the features:
// key(x) = P(x − mean), P the d×n component matrix. For a query q and a
// feature f with e = q − f, every e that projects to the same difference
// u = Pe has eᵀAe ≥ uᵀMu with
//
//	M = G⁻¹,  G = P A⁻¹ Pᵀ  (d×d),
//
// for any full-rank P; the minimiser e* = A⁻¹PᵀMu attains it, so no bound
// computed from u alone is tighter. (Lagrange: minimise eᵀAe subject to
// Pe = u.) NewQFBound computes M once, by a banded Cholesky factorisation of
// A, d banded solves A zᵢ = pᵢ, and a Cholesky inversion of the Gram matrix
// Gᵢⱼ = pᵢᵀzⱼ. The raw Euclidean ‖u‖² bounds nothing, and λ_min(A)·‖u‖²
// (for orthonormal P) is ~4× looser than uᵀMu on the Blobworld corpus,
// where M ≈ 1.89·I: its principal components are smooth across bins, where
// A is near its top eigenvalue, 1.9.
//
// Soundness for computed values. Exceeds(b̂, τ, ‖q−m‖) returning true must
// prove that the computed QFDist2(q, f) exceeds τ, where b̂ = Dist2(q̂, k̂),
// q̂ and k̂ are the query's and the feature's keys computed as
// pagefile.project / svd.PCA.Project compute them (acc += Pᵢⱼ·(xⱼ − mⱼ),
// left to right), and ‖q−m‖ is Offset(q). Notation: ε = 2⁻⁵³, γ(k) =
// kε/(1−kε), λ_A = 0.49 ≤ λ_min(A) and κ = 4 ≥ 1.9/λ_A. A's Toeplitz symbol
// 1 + 2·band1·cos θ + 2·band2·cos 2θ has its minimum 0.49375 at cos θ =
// −0.875 (float64 band constants move it by < 1e-16) and its maximum 1.9,
// and every finite section's eigenvalues lie between the two; |A|'s row sums
// are at most 1.9. Below, n is the full and d the projected dimensionality.
// Overflow is out of scope (features and queries with |coordinates| small
// enough that QFDist2 stays finite); underflow is covered: a product or
// quotient that lands in the subnormal range errs by at most 2⁻¹⁰⁷⁵
// absolutely, sums and differences err only relatively, and the constants
// marked "tiny" below over-count those absolute terms. A fused multiply-add
// only removes roundings, so every bound also holds where the compiler
// fuses.
//
//  1. QFDist2. With ẽᵢ = fl(qᵢ − fᵢ) = eᵢ(1+δᵢ), the kernel sums diag, off1
//     and off2 left to right and adds the band terms: every term carries at
//     most n+3 roundings, so |Q̂ − ẽᵀAẽ| ≤ γ(n+3)·1.9‖ẽ‖² ≤ κγ(n+3)·ẽᵀAẽ,
//     and |ẽᵀAẽ − eᵀAe| ≤ (2ε+ε²)·1.9‖e‖² ≤ κγ(2)·eᵀAe. Hence
//     Q̂ ≥ (1−ε_Q)·eᵀAe − η_Q with ε_Q = κγ(n+5) and η_Q = (3n+3)·tiny.
//     So eᵀAe > τ' := (τ+η_Q)/(1−ε_Q) proves Q̂ > τ.
//  2. The case split. If λ_A‖e‖² > τ', then eᵀAe > τ' and Q̂ > τ whatever the
//     keys say. Otherwise ‖e‖ ≤ R := √(τ'/λ_A), and since ‖f−m‖ ≤ ‖q−m‖ +
//     ‖e‖, the feature's distance from the projection's origin is bounded
//     by query-side quantities alone.
//  3. The projection. Each key coordinate errs by at most
//     γ(n+1)‖Pᵢ‖‖x−m‖ (+ n·tiny), and the difference ûᵢ = fl(q̂ᵢ − k̂ᵢ) adds
//     ε(|q̂ᵢ|+|k̂ᵢ|). So w := û − Pe has ‖w‖ ≤ γ(n+2)‖P‖_F(‖q−m‖+‖f−m‖) +
//     tiny ≤ W := γ(n+2)‖P‖_F(2‖q−m‖ + R) + tiny in case 2, and
//     ‖û‖ ≤ ‖P‖_F·R + W =: U.
//  4. The error of M. For a symmetric M̂ and the exact G, with B = PA^(-1/2),
//     (Pe)ᵀM̂(Pe) = yᵀ(BᵀM̂B)y with ‖y‖² = eᵀAe, and BᵀM̂B shares its nonzero
//     eigenvalues with M̂BBᵀ = M̂G; so (Pe)ᵀM̂(Pe) ≤ s·eᵀAe for any
//     s ≥ ρ(M̂G), and ρ(M̂G) ≤ ‖M̂G‖∞ ≤ ‖fl(M̂Ĝ)‖∞ + γ(d)‖M̂‖∞‖Ĝ‖∞ +
//     ‖M̂‖∞‖Ĝ−G‖∞. The banded solve is backward stable: (A+ΔA)ẑ = p with
//     |ΔA| ≤ γ(10)|Lᵀ||L| (half-bandwidth 2, so inner products of length
//     ≤ 3), whose entries are ≤ √(aᵢᵢaⱼⱼ)(1+γ) with 5 per row, so
//     ‖ẑ−z‖ ≤ ‖A⁻¹‖·6γ(16)‖ẑ‖ ≤ 13γ(16)‖ẑ‖ and |Ĝᵢⱼ − Gᵢⱼ| ≤
//     (γ(n) + 13γ(16))‖pᵢ‖‖ẑⱼ‖ (+ tiny). NewQFBound computes that s. No
//     condition number enters: a badly conditioned Ĝ only makes s large
//     and the bound weak. A Ĝ whose Cholesky factorisation fails (not
//     positive definite, e.g. a zero or repeated component) gives no M:
//     Dist2 is then 0 and Exceeds never fires.
//  5. The bound's own arithmetic. b̂ = fl(Σᵢ ûᵢ Σⱼ M̂ᵢⱼûⱼ) errs by at most
//     γ(2d+1)·|û|ᵀ|M̂||û| ≤ γ(2d+1)‖M̂‖∞U² (+ tiny), and with v = Pe = û − w,
//     vᵀM̂v ≥ ûᵀM̂û − ‖M̂‖₂·W(2U+W).
//
// Together, in case 2: s·eᵀAe ≥ vᵀM̂v ≥ b̂ − γ(2d+1)μU² − η_b − μW(2U+W)
// with μ = ‖M̂‖∞ ≥ ‖M̂‖₂, so b̂ > thr := s·τ' + γ(2d+1)μU² + η_b +
// μW(2U+W) proves eᵀAe > τ' and hence Q̂ > τ; case 1 proves it anyway.
// Exceeds evaluates thr in float64 — a monotone chain of a dozen operations
// on nonnegative values — and scales it by roundUp, which exceeds the
// chain's relative rounding. On the Blobworld corpus the whole margin is
// ~1e-12 relative to τ. A τ that is NaN, infinite or below −η_Q, or an
// offset that is not finite, makes thr NaN or +Inf, and nothing is pruned.

const (
	lambdaA = 0.49        // ≤ λ_min(A); the Toeplitz symbol's minimum is 0.49375
	kappaA  = 4.0         // ≥ 1.9/lambdaA
	roundUp = 1 + 0x1p-40 // exceeds the relative rounding of the short chains below
	tiny    = 0x1p-1074   // the smallest subnormal, twice a subnormal result's error
)

// gamma returns γ(k) = kε/(1−kε), rounded up.
func gamma(k int) float64 {
	ke := float64(k) * 0x1p-53
	return ke / (1 - ke) * roundUp
}

// QFBound is the reduced-space lower bound of QFDist2 for one projection:
// Dist2 of two keys is uᵀMu for their difference u, and Exceeds says whether
// that bound proves a computed QFDist2 greater than a threshold. It is
// immutable after NewQFBound and safe for concurrent use.
type QFBound struct {
	n, d  int
	mean  []float64 // the projection's origin, length n
	m     []float64 // M̂, d×d row-major and exactly symmetric; nil: no bound
	scale float64   // s ≥ ρ(M̂G): (Pe)ᵀM̂(Pe) ≤ scale·eᵀAe for every e
	mu    float64   // ‖M̂‖∞, an upper bound on ‖M̂‖₂
	pNorm float64   // ‖P‖_F, rounded up

	epsQ, etaQ   float64 // QFDist2's relative and absolute error (1.)
	gProj, wAbs  float64 // the key difference's error constants (3.)
	gBound, etaB float64 // Dist2's own error constants (5.)
}

// NewQFBound builds the bound for the projection key(x) = P(x − mean), with
// comp the row-major d×n component matrix P and n = len(mean). It solves
// A zᵢ = pᵢ by a banded Cholesky factorisation of A, forms the Gram matrix
// G = P A⁻¹ Pᵀ, and inverts it by Cholesky to M = G⁻¹; see the derivation
// above for what it verifies about the computed M. When G is not positive
// definite the bound is 0 and Exceeds never fires.
func NewQFBound(mean, comp []float64) *QFBound {
	n := len(mean)
	b := &QFBound{n: n, mean: mean}
	if n == 0 || len(comp) == 0 || len(comp)%n != 0 {
		return b
	}
	d := len(comp) / n
	b.d = d

	// Banded Cholesky A = LLᵀ: L's diagonal, first and second subdiagonal.
	l0, l1, l2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if i >= 2 {
			l2[i] = band2 / l0[i-2]
		}
		if i >= 1 {
			l1[i] = (band1 - l2[i]*l1[i-1]) / l0[i-1]
		}
		l0[i] = math.Sqrt(1 - l1[i]*l1[i] - l2[i]*l2[i])
	}
	// zⱼ = A⁻¹pⱼ by a forward and a backward banded substitution.
	z := make([]float64, d*n)
	for j := 0; j < d; j++ {
		p, zj := comp[j*n:(j+1)*n], z[j*n:(j+1)*n]
		for i := 0; i < n; i++ {
			y := p[i]
			if i >= 1 {
				y -= l1[i] * zj[i-1]
			}
			if i >= 2 {
				y -= l2[i] * zj[i-2]
			}
			zj[i] = y / l0[i]
		}
		for i := n - 1; i >= 0; i-- {
			y := zj[i]
			if i+1 < n {
				y -= l1[i+1] * zj[i+1]
			}
			if i+2 < n {
				y -= l2[i+2] * zj[i+2]
			}
			zj[i] = y / l0[i]
		}
	}

	// Ĝ = P Z (symmetric by construction), and the bound on |Ĝ − G| (4.).
	pn, zn := make([]float64, d), make([]float64, d)
	var pf float64
	for j := 0; j < d; j++ {
		pn[j] = math.Sqrt(dot(comp[j*n:(j+1)*n], comp[j*n:(j+1)*n]))
		zn[j] = math.Sqrt(dot(z[j*n:(j+1)*n], z[j*n:(j+1)*n]))
		pf += pn[j] * pn[j]
	}
	g := make([]float64, d*d)
	gRel := gamma(n) + 13*gamma(16)
	var gNorm, gErr float64
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			g[i*d+j] = dot(comp[i*n:(i+1)*n], z[j*n:(j+1)*n])
			g[j*d+i] = g[i*d+j]
		}
	}
	for i := 0; i < d; i++ {
		var row, rowErr float64
		for j := 0; j < d; j++ {
			row += math.Abs(g[i*d+j])
			rowErr += gRel*pn[i]*zn[j] + float64(64*n)*tiny
		}
		gNorm, gErr = math.Max(gNorm, row), math.Max(gErr, rowErr)
	}

	// Ĝ = LGLGᵀ, X = LG⁻¹, M̂ = XᵀX (upper triangle mirrored: exactly
	// symmetric). A pivot that is not positive leaves the bound at 0.
	lg := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			s := g[i*d+j]
			for k := 0; k < j; k++ {
				s -= lg[i*d+k] * lg[j*d+k]
			}
			if i == j {
				if !(s > 0) || math.IsInf(s, 1) {
					return b
				}
				lg[i*d+i] = math.Sqrt(s)
			} else {
				lg[i*d+j] = s / lg[j*d+j]
			}
		}
	}
	x := make([]float64, d*d)
	for j := 0; j < d; j++ {
		x[j*d+j] = 1 / lg[j*d+j]
		for i := j + 1; i < d; i++ {
			var s float64
			for k := j; k < i; k++ {
				s += lg[i*d+k] * x[k*d+j]
			}
			x[i*d+j] = -s / lg[i*d+i]
		}
	}
	m := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			var s float64
			for k := j; k < d; k++ {
				s += x[k*d+i] * x[k*d+j]
			}
			m[i*d+j], m[j*d+i] = s, s
		}
	}

	// s ≥ ‖fl(M̂Ĝ)‖∞ + γ(d)‖M̂‖∞‖Ĝ‖∞ + ‖M̂‖∞‖Ĝ−G‖∞ ≥ ρ(M̂G) (4.).
	var cNorm, mu float64
	for i := 0; i < d; i++ {
		var crow, mrow float64
		for j := 0; j < d; j++ {
			var c float64
			for k := 0; k < d; k++ {
				c += m[i*d+k] * g[k*d+j]
			}
			crow += math.Abs(c)
			mrow += math.Abs(m[i*d+j])
		}
		cNorm, mu = math.Max(cNorm, crow), math.Max(mu, mrow)
	}
	mu *= roundUp
	scale := (cNorm*roundUp + gamma(d)*mu*gNorm + mu*gErr) * roundUp
	if math.IsInf(scale, 0) || math.IsNaN(scale) || math.IsInf(mu, 0) {
		return b
	}
	b.m, b.scale, b.mu = m, scale, mu
	b.pNorm = math.Sqrt(pf) * roundUp
	b.epsQ = kappaA * gamma(n+5)
	b.etaQ = float64(3*n+3) * tiny
	b.gProj = gamma(n + 2)
	b.wAbs = float64(4*d*n+4) * tiny
	b.gBound = gamma(2*d + 1)
	b.etaB = float64(2*d*d+2*d+16) * tiny
	return b
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Dist2 returns the computed bound uᵀM̂u for u = x − y, the difference of
// two keys of the projection (a projected query and an index key); 0 when
// the projection has no bound. It panics if a key is shorter than d.
func (b *QFBound) Dist2(x, y []float64) float64 {
	if b.m == nil {
		return 0
	}
	d := b.d
	x, y = x[:d:d], y[:d:d]
	var s float64
	for i := 0; i < d; i++ {
		row := b.m[i*d : (i+1)*d : (i+1)*d]
		var r float64
		for j := range row {
			r += row[j] * (x[j] - y[j])
		}
		s += (x[i] - y[i]) * r
	}
	return s
}

// Offset returns ‖q − mean‖ rounded up: the query's distance from the
// projection's origin, which Exceeds needs (step 2 of the derivation).
func (b *QFBound) Offset(q []float64) float64 {
	var s float64
	for j, v := range q[:b.n] {
		e := v - b.mean[j]
		s += e * e
	}
	return math.Sqrt(s) * (1 + gamma(b.n+4))
}

// Exceeds reports whether a candidate whose bound (Dist2 of the projected
// query and its key) is bound provably has a computed QFDist2 to the query
// greater than tau; offset is Offset(query). It is monotone in bound, and
// false whenever the projection has no bound or an argument is NaN or
// infinite. Sound only when the candidate's key is its feature's projection
// as computed by the projection's own arithmetic.
func (b *QFBound) Exceeds(bound, tau, offset float64) bool {
	if b.m == nil {
		return false
	}
	tau1 := (tau + b.etaQ) / (1 - b.epsQ)
	r := math.Sqrt(tau1 / lambdaA)
	w := b.gProj*b.pNorm*(2*offset+r) + b.wAbs
	u := b.pNorm*r + w
	thr := b.scale*tau1 + b.gBound*b.mu*u*u + b.etaB + b.mu*w*(2*u+w)
	return bound > thr*roundUp
}
