package geom

import "math"

// Sphere is a hyper-sphere, the bounding predicate of the SS-tree and half of
// the SR-tree's predicate.
type Sphere struct {
	Center Vector
	Radius float64
}

// BoundingSphere returns the centroid sphere of the given points: centered at
// their arithmetic mean with radius reaching the farthest point. This is the
// construction used by the SS-tree (White & Jain 1996). It panics if pts is
// empty.
func BoundingSphere(pts []Vector) Sphere {
	c := Centroid(pts)
	var r2 float64
	for _, p := range pts {
		if d2 := c.Dist2(p); d2 > r2 {
			r2 = d2
		}
	}
	return Sphere{Center: c, Radius: math.Sqrt(r2)}
}

// Dim returns the dimensionality of the sphere.
func (s Sphere) Dim() int { return len(s.Center) }

// Clone returns an independent copy of s.
func (s Sphere) Clone() Sphere {
	return Sphere{Center: s.Center.Clone(), Radius: s.Radius}
}

// Contains reports whether p lies inside s (boundary inclusive, with a tiny
// epsilon to absorb floating-point error in radius computations).
func (s Sphere) Contains(p Vector) bool {
	return s.Center.Dist2(p) <= s.Radius*s.Radius*(1+1e-12)+1e-300
}

// MinDist2 returns the squared distance from p to the nearest point of s,
// or 0 if p lies inside s.
func (s Sphere) MinDist2(p Vector) float64 {
	d := s.Center.Dist(p) - s.Radius
	if d <= 0 {
		return 0
	}
	return d * d
}

// Union returns a sphere containing both s and t. The result is the minimal
// sphere containing the two input spheres (not of the underlying points,
// which are no longer available), matching SS-tree maintenance.
func (s Sphere) Union(t Sphere) Sphere {
	d := s.Center.Dist(t.Center)
	// One sphere may already contain the other.
	if d+t.Radius <= s.Radius {
		return s.Clone()
	}
	if d+s.Radius <= t.Radius {
		return t.Clone()
	}
	r := (d + s.Radius + t.Radius) / 2
	// New center sits on the segment between the two centers, shifted from
	// s.Center toward t.Center by (r - s.Radius).
	out := Sphere{Center: make(Vector, len(s.Center)), Radius: r}
	if d == 0 {
		copy(out.Center, s.Center)
		return out
	}
	f := (r - s.Radius) / d
	for i := range out.Center {
		out.Center[i] = s.Center[i] + f*(t.Center[i]-s.Center[i])
	}
	return out
}

// Volume returns the D-dimensional volume of s.
func (s Sphere) Volume() float64 {
	return unitBallVolume(len(s.Center)) * math.Pow(s.Radius, float64(len(s.Center)))
}

// unitBallVolume returns the volume of the unit D-ball,
// π^(D/2) / Γ(D/2 + 1).
func unitBallVolume(d int) float64 {
	return math.Pow(math.Pi, float64(d)/2) / math.Gamma(float64(d)/2+1)
}
