package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectVolumeMargin(t *testing.T) {
	r := Rect{Lo: Vector{0, 0}, Hi: Vector{2, 3}}
	if got := r.Volume(); got != 6 {
		t.Errorf("Volume = %v, want 6", got)
	}
	if got := r.Margin(); got != 5 {
		t.Errorf("Margin = %v, want 5", got)
	}
}

func TestRectDegenerateVolume(t *testing.T) {
	r := NewRectFromPoint(Vector{1, 2, 3})
	if got := r.Volume(); got != 0 {
		t.Errorf("point rect volume = %v, want 0", got)
	}
	if !r.Contains(Vector{1, 2, 3}) {
		t.Error("point rect should contain its point")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Lo: Vector{0, 0}, Hi: Vector{1, 1}}
	cases := []struct {
		p    Vector
		want bool
	}{
		{Vector{0.5, 0.5}, true},
		{Vector{0, 0}, true}, // boundary inclusive
		{Vector{1, 1}, true}, // boundary inclusive
		{Vector{1.01, 0.5}, false},
		{Vector{-0.01, 0.5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectOverlapsIntersect(t *testing.T) {
	a := Rect{Lo: Vector{0, 0}, Hi: Vector{2, 2}}
	b := Rect{Lo: Vector{1, 1}, Hi: Vector{3, 3}}
	c := Rect{Lo: Vector{5, 5}, Hi: Vector{6, 6}}
	inter, ok := a.Intersect(b)
	if !ok {
		t.Fatal("intersection should be non-empty")
	}
	want := Rect{Lo: Vector{1, 1}, Hi: Vector{2, 2}}
	if !inter.Equal(want) {
		t.Errorf("Intersect = %v, want %v", inter, want)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("a∩c should be empty")
	}
	// Touching rectangles intersect in their shared boundary.
	d := Rect{Lo: Vector{2, 0}, Hi: Vector{3, 2}}
	if edge, ok := a.Intersect(d); !ok || edge.Volume() != 0 {
		t.Errorf("touching rects: Intersect = %v, %v; want a zero-volume face", edge, ok)
	}
}

func TestRectUnionEnlargement(t *testing.T) {
	a := Rect{Lo: Vector{0, 0}, Hi: Vector{1, 1}}
	b := Rect{Lo: Vector{2, 2}, Hi: Vector{3, 3}}
	u := a.Union(b)
	want := Rect{Lo: Vector{0, 0}, Hi: Vector{3, 3}}
	if !u.Equal(want) {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if got := a.Enlargement(b); got != 8 {
		t.Errorf("Enlargement = %v, want 8", got)
	}
	if got := a.Enlargement(a); got != 0 {
		t.Errorf("self Enlargement = %v, want 0", got)
	}
}

func TestRectMinDist2(t *testing.T) {
	r := Rect{Lo: Vector{0, 0}, Hi: Vector{1, 1}}
	cases := []struct {
		p    Vector
		want float64
	}{
		{Vector{0.5, 0.5}, 0}, // inside
		{Vector{0, 1}, 0},     // on boundary
		{Vector{2, 0.5}, 1},   // right of
		{Vector{2, 2}, 2},     // corner diagonal
		{Vector{-3, 0.5}, 9},  // left of
	}
	for _, c := range cases {
		if got := r.MinDist2(c.p); got != c.want {
			t.Errorf("MinDist2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectMaxDist2(t *testing.T) {
	r := Rect{Lo: Vector{0, 0}, Hi: Vector{1, 1}}
	if got := r.MaxDist2(Vector{0, 0}); got != 2 {
		t.Errorf("MaxDist2 from corner = %v, want 2", got)
	}
	if got := r.MaxDist2(Vector{2, 0}); got != 5 {
		t.Errorf("MaxDist2 = %v, want 5", got)
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{Lo: Vector{0, 0}, Hi: Vector{1, 1}}
	if got := r.Clamp(Vector{2, -1}); !got.Equal(Vector{1, 0}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Vector{0.3, 0.7}); !got.Equal(Vector{0.3, 0.7}) {
		t.Errorf("Clamp of interior point changed it: %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Vector{{1, 5}, {-2, 3}, {4, 4}}
	r := BoundingRect(pts)
	want := Rect{Lo: Vector{-2, 3}, Hi: Vector{4, 5}}
	if !r.Equal(want) {
		t.Errorf("BoundingRect = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("BoundingRect does not contain %v", p)
		}
	}
}

func TestPairVolume(t *testing.T) {
	a := Rect{Lo: Vector{0, 0}, Hi: Vector{2, 2}} // vol 4
	b := Rect{Lo: Vector{1, 1}, Hi: Vector{3, 3}} // vol 4, overlap 1
	if got := PairVolume(a, b); got != 7 {
		t.Errorf("PairVolume = %v, want 7", got)
	}
	c := Rect{Lo: Vector{5, 5}, Hi: Vector{6, 6}} // vol 1, disjoint
	if got := PairVolume(a, c); got != 5 {
		t.Errorf("PairVolume disjoint = %v, want 5", got)
	}
}

func randRect(r *rand.Rand, dim int) Rect {
	a, b := randVec(r, dim), randVec(r, dim)
	return BoundingRect([]Vector{a, b})
}

// Property: a union contains both inputs and MinDist2 to the union is never
// larger than MinDist2 to either input.
func TestRectUnionProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng, 4), randRect(rng, 4)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		p := randVec(rng, 4)
		return u.MinDist2(p) <= a.MinDist2(p)+1e-12 && u.MinDist2(p) <= b.MinDist2(p)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MinDist2 equals the distance to the clamped point, and is zero
// exactly when the rect contains the point.
func TestRectMinDistClampConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 3)
		p := randVec(rng, 3)
		q := r.Clamp(p)
		if !almostEqual(r.MinDist2(p), p.Dist2(q), 1e-9) {
			return false
		}
		return (r.MinDist2(p) == 0) == r.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MinDist2 ≤ MaxDist2 for any point.
func TestRectMinLEMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRect(rng, 5)
		p := randVec(rng, 5)
		return r.MinDist2(p) <= r.MaxDist2(p)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
