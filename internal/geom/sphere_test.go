package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoundingSphere(t *testing.T) {
	pts := []Vector{{0, 0}, {2, 0}, {1, 1}}
	s := BoundingSphere(pts)
	if !s.Center.Equal(Vector{1, 1.0 / 3}) {
		t.Errorf("Center = %v", s.Center)
	}
	for _, p := range pts {
		if !s.Contains(p) {
			t.Errorf("sphere does not contain %v", p)
		}
	}
}

func TestSphereMinMaxDist(t *testing.T) {
	s := Sphere{Center: Vector{0, 0}, Radius: 1}
	if got := s.MinDist2(Vector{3, 0}); got != 4 {
		t.Errorf("MinDist2 = %v, want 4", got)
	}
	if got := s.MinDist2(Vector{0.5, 0}); got != 0 {
		t.Errorf("MinDist2 inside = %v, want 0", got)
	}
}

func TestSphereContains(t *testing.T) {
	s := Sphere{Center: Vector{0, 0}, Radius: 2}
	if !s.Contains(Vector{2, 0}) {
		t.Error("boundary point should be contained")
	}
	if s.Contains(Vector{2.001, 0}) {
		t.Error("exterior point should not be contained")
	}
}

func TestSphereUnionContainment(t *testing.T) {
	a := Sphere{Center: Vector{0, 0}, Radius: 1}
	b := Sphere{Center: Vector{4, 0}, Radius: 1}
	u := a.Union(b)
	if !almostEqual(u.Radius, 3, 1e-12) {
		t.Errorf("union radius = %v, want 3", u.Radius)
	}
	if !u.Center.Equal(Vector{2, 0}) {
		t.Errorf("union center = %v, want (2,0)", u.Center)
	}
}

func TestSphereUnionNested(t *testing.T) {
	big := Sphere{Center: Vector{0, 0}, Radius: 5}
	small := Sphere{Center: Vector{1, 0}, Radius: 1}
	u := big.Union(small)
	if u.Radius != 5 || !u.Center.Equal(big.Center) {
		t.Errorf("union of nested spheres = %+v, want the big one", u)
	}
	u2 := small.Union(big)
	if u2.Radius != 5 || !u2.Center.Equal(big.Center) {
		t.Errorf("reversed union of nested spheres = %+v, want the big one", u2)
	}
}

func TestSphereUnionSameCenter(t *testing.T) {
	a := Sphere{Center: Vector{1, 1}, Radius: 1}
	b := Sphere{Center: Vector{1, 1}, Radius: 2}
	u := a.Union(b)
	if u.Radius != 2 || !u.Center.Equal(a.Center) {
		t.Errorf("union = %+v", u)
	}
}

func TestUnitBallVolume(t *testing.T) {
	// V_1 = 2, V_2 = π, V_3 = 4π/3.
	if got := unitBallVolume(1); !almostEqual(got, 2, 1e-12) {
		t.Errorf("V1 = %v", got)
	}
	if got := unitBallVolume(2); !almostEqual(got, math.Pi, 1e-12) {
		t.Errorf("V2 = %v", got)
	}
	if got := unitBallVolume(3); !almostEqual(got, 4*math.Pi/3, 1e-12) {
		t.Errorf("V3 = %v", got)
	}
}

func TestSphereVolume(t *testing.T) {
	s := Sphere{Center: Vector{0, 0}, Radius: 2}
	if got := s.Volume(); !almostEqual(got, 4*math.Pi, 1e-12) {
		t.Errorf("volume = %v, want 4π", got)
	}
}

// Property: the union of two spheres contains sample points of both.
func TestSphereUnionContainsSamples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Sphere{Center: randVec(rng, 3), Radius: math.Abs(rng.NormFloat64()) + 0.1}
		b := Sphere{Center: randVec(rng, 3), Radius: math.Abs(rng.NormFloat64()) + 0.1}
		u := a.Union(b)
		for i := 0; i < 20; i++ {
			// Random point on each sphere's boundary.
			for _, s := range []Sphere{a, b} {
				dir := randVec(rng, 3)
				n := dir.Norm()
				if n == 0 {
					continue
				}
				p := s.Center.Add(dir.Scale(s.Radius / n))
				if u.Center.Dist(p) > u.Radius*(1+1e-9)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BoundingSphere contains all input points, and MinDist2 is an
// admissible lower bound on the distance to any contained point.
func TestBoundingSphereAdmissible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = randVec(rng, 4)
		}
		s := BoundingSphere(pts)
		q := randVec(rng, 4)
		lb := s.MinDist2(q)
		for _, p := range pts {
			if !s.Contains(p) {
				return false
			}
			if q.Dist2(p) < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
