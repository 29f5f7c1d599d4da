package geom

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-aligned hyper-rectangle, stored as its low and high corner
// points. A Rect with Lo[i] == Hi[i] in some dimension is degenerate but
// valid: single points are represented as zero-volume rectangles.
type Rect struct {
	Lo, Hi Vector
}

// NewRectFromPoint returns the degenerate rectangle covering exactly p.
func NewRectFromPoint(p Vector) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// BoundingRect returns the minimum bounding rectangle of the given points.
// It panics if pts is empty.
func BoundingRect(pts []Vector) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := NewRectFromPoint(pts[0])
	for _, p := range pts[1:] {
		r.ExpandToPoint(p)
	}
	return r
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Equal reports whether r and s cover the identical region.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// Volume returns the D-dimensional volume of r. Degenerate rectangles have
// zero volume.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// Margin returns the sum of the edge lengths of r (the L1 analogue of
// surface area, as used by R*-tree style heuristics).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Contains reports whether point p lies inside r (boundary inclusive).
func (r Rect) Contains(p Vector) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{Lo: make(Vector, len(r.Lo)), Hi: make(Vector, len(r.Hi))}
	for i := range r.Lo {
		out.Lo[i] = math.Max(r.Lo[i], s.Lo[i])
		out.Hi[i] = math.Min(r.Hi[i], s.Hi[i])
		if out.Lo[i] > out.Hi[i] {
			return Rect{}, false
		}
	}
	return out, true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	out := Rect{Lo: make(Vector, len(r.Lo)), Hi: make(Vector, len(r.Hi))}
	for i := range r.Lo {
		out.Lo[i] = math.Min(r.Lo[i], s.Lo[i])
		out.Hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return out
}

// ExpandToPoint grows r in place so that it contains p.
func (r *Rect) ExpandToPoint(p Vector) {
	for i := range r.Lo {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// ExpandToRect grows r in place so that it contains s.
func (r *Rect) ExpandToRect(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// Enlargement returns the increase in volume required for r to contain s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Volume() - r.Volume()
}

// Center returns the center point of r.
func (r Rect) Center() Vector {
	c := make(Vector, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// MinDist2 returns the squared Euclidean distance from p to the nearest point
// of r, or 0 if p lies inside r. This is the classic MINDIST of Roussopoulos
// et al., the admissible lower bound driving best-first NN search. The small
// dimensionalities of the hot path are unrolled; the result is bit-identical
// to the generic loop (see flat_test.go).
func (r Rect) MinDist2(p Vector) float64 {
	lo, hi := r.Lo, r.Hi
	switch len(lo) {
	case 1:
		return minDistTerm(lo[0], hi[0], p[0])
	case 2:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		return s
	case 3:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		s += minDistTerm(lo[2], hi[2], p[2])
		return s
	case 4:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		s += minDistTerm(lo[2], hi[2], p[2])
		s += minDistTerm(lo[3], hi[3], p[3])
		return s
	case 5:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		s += minDistTerm(lo[2], hi[2], p[2])
		s += minDistTerm(lo[3], hi[3], p[3])
		s += minDistTerm(lo[4], hi[4], p[4])
		return s
	case 6:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		s += minDistTerm(lo[2], hi[2], p[2])
		s += minDistTerm(lo[3], hi[3], p[3])
		s += minDistTerm(lo[4], hi[4], p[4])
		s += minDistTerm(lo[5], hi[5], p[5])
		return s
	case 7:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		s += minDistTerm(lo[2], hi[2], p[2])
		s += minDistTerm(lo[3], hi[3], p[3])
		s += minDistTerm(lo[4], hi[4], p[4])
		s += minDistTerm(lo[5], hi[5], p[5])
		s += minDistTerm(lo[6], hi[6], p[6])
		return s
	case 8:
		s := minDistTerm(lo[0], hi[0], p[0])
		s += minDistTerm(lo[1], hi[1], p[1])
		s += minDistTerm(lo[2], hi[2], p[2])
		s += minDistTerm(lo[3], hi[3], p[3])
		s += minDistTerm(lo[4], hi[4], p[4])
		s += minDistTerm(lo[5], hi[5], p[5])
		s += minDistTerm(lo[6], hi[6], p[6])
		s += minDistTerm(lo[7], hi[7], p[7])
		return s
	}
	return minDist2Generic(lo, hi, p)
}

// minDistTerm returns one dimension's MINDIST contribution. The clamp is
// written as a branchless max — exactly one of lo-p and p-hi is positive
// when p lies outside the slab, both are non-positive inside — because the
// two-comparison form mispredicts on essentially random query positions.
func minDistTerm(lo, hi, p float64) float64 {
	d := max(lo-p, p-hi, 0)
	return d * d
}

// minDist2Generic is the reference MINDIST loop, also used above 8-D.
func minDist2Generic(lo, hi Vector, p Vector) float64 {
	var sum float64
	for i := range lo {
		d := max(lo[i]-p[i], p[i]-hi[i], 0)
		sum += d * d
	}
	return sum
}

// MaxDist2 returns the squared distance from p to the farthest point of r.
func (r Rect) MaxDist2(p Vector) float64 {
	var sum float64
	for i := range r.Lo {
		d := math.Max(math.Abs(p[i]-r.Lo[i]), math.Abs(p[i]-r.Hi[i]))
		sum += d * d
	}
	return sum
}

// Clamp returns the point of r nearest to p (p itself when p is inside r).
func (r Rect) Clamp(p Vector) Vector {
	q := p.Clone()
	for i := range q {
		if q[i] < r.Lo[i] {
			q[i] = r.Lo[i]
		} else if q[i] > r.Hi[i] {
			q[i] = r.Hi[i]
		}
	}
	return q
}

// PairVolume returns the total volume enclosed by rectangles a and b,
// counting any overlapped region only once: vol(a) + vol(b) − vol(a∩b).
// This is the objective minimized by the MAP bounding predicate.
func PairVolume(a, b Rect) float64 {
	v := a.Volume() + b.Volume()
	if inter, ok := a.Intersect(b); ok {
		v -= inter.Volume()
	}
	return v
}

// String renders the rectangle as [lo…hi] per dimension, for debugging.
func (r Rect) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range r.Lo {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g..%.4g", r.Lo[i], r.Hi[i])
	}
	b.WriteByte(']')
	return b.String()
}
