package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The kernels in flat.go / rect.go / bites.go / bnb.go claim bit-identity
// with the generic reference loops. These property tests enforce the claim
// across dimensions 1–10 (covering every unrolled case plus the generic
// fallback) with math.Float64bits comparisons, so even a last-bit rounding
// difference from reordered operations fails.

// randVec and randRect live in vector_test.go / rect_test.go.

func TestDist2FlatMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for dim := 1; dim <= 10; dim++ {
		flat := make([]float64, dim*16)
		for trial := 0; trial < 200; trial++ {
			q := randVec(rng, dim)
			for i := range flat {
				flat[i] = rng.NormFloat64() * 10
			}
			for i := 0; i < 16; i++ {
				got := Dist2Flat(q, flat, i, dim)
				want := dist2Generic(q, flat[i*dim:(i+1)*dim])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d point %d: Dist2Flat=%v generic=%v", dim, i, got, want)
				}
				if vd := q.Dist2(Vector(flat[i*dim : (i+1)*dim])); math.Float64bits(vd) != math.Float64bits(want) {
					t.Fatalf("dim %d point %d: Vector.Dist2=%v generic=%v", dim, i, vd, want)
				}
			}
		}
	}
}

func TestMinDist2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for dim := 1; dim <= 10; dim++ {
		for trial := 0; trial < 500; trial++ {
			r := randRect(rng, dim)
			p := randVec(rng, dim)
			if trial%3 == 0 {
				p = r.Clamp(p) // exercise the inside-the-rect branch
			}
			got := r.MinDist2(p)
			want := minDist2Generic(r.Lo, r.Hi, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: MinDist2=%v generic=%v (r=%v p=%v)", dim, got, want, r, p)
			}
		}
	}
}

// randBites builds a realistic bite set via NibbleBites on random points
// inside r, plus the occasional hand-made bite to hit degenerate extents.
func randBites(rng *rand.Rand, r Rect, dim int) []Bite {
	n := 4 + rng.Intn(40)
	pts := make([]Vector, n)
	for i := range pts {
		p := make(Vector, dim)
		for d := 0; d < dim; d++ {
			p[d] = r.Lo[d] + rng.Float64()*(r.Hi[d]-r.Lo[d])
		}
		pts[i] = p
	}
	bites := NibbleBites(r, pts)
	if rng.Intn(2) == 0 && len(bites) > 1 {
		bites = bites[:1+rng.Intn(len(bites))]
	}
	return bites
}

func TestMinDist2RectMinusBiteMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for dim := 1; dim <= 10; dim++ {
		for trial := 0; trial < 100; trial++ {
			r := randRect(rng, dim)
			bites := randBites(rng, r, dim)
			for _, b := range bites {
				for q := 0; q < 8; q++ {
					p := randVec(rng, dim)
					got := MinDist2RectMinusBite(p, r, b)
					want := minDist2RectMinusBiteGeneric(p, r, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dim %d: MinDist2RectMinusBite=%v generic=%v", dim, got, want)
					}
				}
			}
		}
	}
}

// TestMinDist2JBMatchesGeneric holds the stack-array search to the generic
// one bit for bit. Above 8 dims MinDist2JB is the generic search itself, so
// only dims 1–8 compare two implementations.
func TestMinDist2JBMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for dim := 1; dim <= 8; dim++ {
		for trial := 0; trial < 60; trial++ {
			r := randRect(rng, dim)
			bites := randBites(rng, r, dim)
			if len(bites) == 0 {
				continue
			}
			for q := 0; q < 10; q++ {
				p := randVec(rng, dim)
				got := MinDist2JB(p, r, bites)
				want := minDist2JBGeneric(p, r, bites)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d: MinDist2JB=%v generic=%v", dim, got, want)
				}
			}
		}
	}
}

// FuzzDist2Flat feeds arbitrary coordinates through the unrolled kernels and
// cross-checks the generic loop bit for bit.
func FuzzDist2Flat(f *testing.F) {
	f.Add(uint8(5), 1.5, -2.25, 0.0, 3.75, -1e9, 2.5, 0.125, -0.5)
	f.Add(uint8(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(8), 1e-300, -1e300, 42.0, -42.0, 1e-9, 7.0, -7.0, 0.5)
	f.Fuzz(func(t *testing.T, d uint8, a, b, c, e, g, h, i, j float64) {
		dim := int(d%8) + 1
		coords := []float64{a, b, c, e, g, h, i, j}
		for _, v := range coords {
			if math.IsNaN(v) {
				return // NaN breaks comparability of every distance kernel
			}
		}
		q := Vector(coords[:dim])
		w := make([]float64, dim)
		for k := 0; k < dim; k++ {
			w[k] = coords[(k+3)%8]
		}
		got := Dist2Flat(q, w, 0, dim)
		want := dist2Generic(q, w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dim %d: Dist2Flat=%v generic=%v", dim, got, want)
		}
	})
}

// The whole point of the small-dimension kernels is that they do not touch
// the heap. Guard it with allocation counts (dim 5 = the paper's data).
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim = 5
	r := randRect(rng, dim)
	p := randVec(rng, dim)
	q := randVec(rng, dim)
	flat := make([]float64, dim*8)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	bites := randBites(rng, r, dim)
	for len(bites) == 0 {
		r = randRect(rng, dim)
		bites = randBites(rng, r, dim)
	}
	var sink float64
	checks := []struct {
		name string
		fn   func()
	}{
		{"Dist2Flat", func() { sink += Dist2Flat(q, flat, 3, dim) }},
		{"Vector.Dist2", func() { sink += p.Dist2(q) }},
		{"MinDist2", func() { sink += r.MinDist2(p) }},
		{"MinDist2RectMinusBite", func() { sink += MinDist2RectMinusBite(p, r, bites[0]) }},
		{"MinDist2RectMinusBites", func() { sink += MinDist2RectMinusBites(p, r, bites) }},
		{"MinDist2JB", func() { sink += MinDist2JB(p, r, bites) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call; want 0", c.name, avg)
		}
	}
	_ = sink
}
