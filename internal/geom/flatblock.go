package geom

import (
	"fmt"
	"slices"
)

// This file holds the whole-block distance kernels: instead of calling
// Dist2Flat once per key, a leaf scan hands the entire flat-SoA coordinate
// block to one of these and gets every squared distance back in a single
// pass. The per-dimension specializations hoist the query coordinates into
// locals once per block, walk the block with a moving full-slice-expression
// window (one bounds check per key instead of one per coordinate), and
// unroll four keys per loop iteration so the compiler can schedule four
// independent accumulator lanes.
//
// Bit-identity contract: every key's distance is computed by exactly the
// same floating-point operation sequence as Dist2Flat — the unrolling is
// across keys (each key's sum stays a single serial accumulator), never
// within one key's sum, so results are Float64bits-identical to the scalar
// loops. flatblock_test.go enforces this across dims 1–8 and beyond,
// including 0–3 remainder keys after the 4-wide lanes.

// Dist2FlatBlock appends the squared Euclidean distance from q to every key
// of the dim-strided coordinate block flat (len(flat)/dim keys, in storage
// order) and returns the extended slice. It panics if len(q) != dim or flat
// is not a whole number of keys.
func Dist2FlatBlock(q Vector, flat []float64, dim int, dst []float64) []float64 {
	if len(q) != dim {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(q), dim))
	}
	if dim <= 0 || len(flat)%dim != 0 {
		panic(fmt.Sprintf("geom: flat block of %d floats is not a whole number of %d-d keys", len(flat), dim))
	}
	n := len(flat) / dim
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	switch dim {
	case 1:
		dist2Block1(q, flat, out)
	case 2:
		dist2Block2(q, flat, out)
	case 3:
		dist2Block3(q, flat, out)
	case 4:
		dist2Block4(q, flat, out)
	case 5:
		dist2Block5(q, flat, out)
	case 6:
		dist2Block6(q, flat, out)
	case 7:
		dist2Block7(q, flat, out)
	case 8:
		dist2Block8(q, flat, out)
	default:
		dist2BlockGeneric(q, flat, dim, out)
	}
	return dst[:len(dst)+n]
}

// RangeFlatBlock is the range-filter variant: it scores every key of flat
// against q, keeps only those with distance <= radius2, and appends their
// key indices to idx and their distances to dists (parallel slices, storage
// order). The scoring pass runs through dists as scratch — anything past
// its initial length is clobbered — so the compacted suffix starts at the
// length the caller passed in. Same panics as Dist2FlatBlock.
func RangeFlatBlock(q Vector, flat []float64, dim int, radius2 float64, idx []int32, dists []float64) ([]int32, []float64) {
	base := len(dists)
	dists = Dist2FlatBlock(q, flat, dim, dists)
	keep := base
	for i, d := range dists[base:] {
		if d <= radius2 {
			idx = append(idx, int32(i))
			dists[keep] = d
			keep++
		}
	}
	return idx, dists[:keep]
}

// Per-key kernels: each computes one key's squared distance with the query
// coordinates already hoisted into registers and the key window already
// sliced (full slice expressions, so one bounds check covers the key). The
// operation order matches dist2Points exactly — see the bit-identity
// contract above. All are small enough for the inliner.

func d2k1(q0 float64, w []float64) float64 {
	d0 := q0 - w[0]
	return d0 * d0
}

func d2k2(q0, q1 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	return s
}

func d2k3(q0, q1, q2 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	d2 := q2 - w[2]
	s += d2 * d2
	return s
}

func d2k4(q0, q1, q2, q3 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	d2 := q2 - w[2]
	s += d2 * d2
	d3 := q3 - w[3]
	s += d3 * d3
	return s
}

func d2k5(q0, q1, q2, q3, q4 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	d2 := q2 - w[2]
	s += d2 * d2
	d3 := q3 - w[3]
	s += d3 * d3
	d4 := q4 - w[4]
	s += d4 * d4
	return s
}

func d2k6(q0, q1, q2, q3, q4, q5 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	d2 := q2 - w[2]
	s += d2 * d2
	d3 := q3 - w[3]
	s += d3 * d3
	d4 := q4 - w[4]
	s += d4 * d4
	d5 := q5 - w[5]
	s += d5 * d5
	return s
}

func d2k7(q0, q1, q2, q3, q4, q5, q6 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	d2 := q2 - w[2]
	s += d2 * d2
	d3 := q3 - w[3]
	s += d3 * d3
	d4 := q4 - w[4]
	s += d4 * d4
	d5 := q5 - w[5]
	s += d5 * d5
	d6 := q6 - w[6]
	s += d6 * d6
	return s
}

func d2k8(q0, q1, q2, q3, q4, q5, q6, q7 float64, w []float64) float64 {
	d0 := q0 - w[0]
	s := d0 * d0
	d1 := q1 - w[1]
	s += d1 * d1
	d2 := q2 - w[2]
	s += d2 * d2
	d3 := q3 - w[3]
	s += d3 * d3
	d4 := q4 - w[4]
	s += d4 * d4
	d5 := q5 - w[5]
	s += d5 * d5
	d6 := q6 - w[6]
	s += d6 * d6
	d7 := q7 - w[7]
	s += d7 * d7
	return s
}

// Per-dimension block loops: four keys per iteration (independent
// accumulator lanes), scalar remainder for the 0–3 tail keys.

func dist2Block1(q Vector, flat, out []float64) {
	q0 := q[0]
	n := len(out)
	i := 0
	for ; i+4 <= n; i += 4 {
		w := flat[i : i+4 : i+4]
		out[i] = d2k1(q0, w[0:1:1])
		out[i+1] = d2k1(q0, w[1:2:2])
		out[i+2] = d2k1(q0, w[2:3:3])
		out[i+3] = d2k1(q0, w[3:4:4])
	}
	for ; i < n; i++ {
		out[i] = d2k1(q0, flat[i:i+1:i+1])
	}
}

func dist2Block2(q Vector, flat, out []float64) {
	q0, q1 := q[0], q[1]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+8 {
		w := flat[o : o+8 : o+8]
		out[i] = d2k2(q0, q1, w[0:2:2])
		out[i+1] = d2k2(q0, q1, w[2:4:4])
		out[i+2] = d2k2(q0, q1, w[4:6:6])
		out[i+3] = d2k2(q0, q1, w[6:8:8])
	}
	for ; i < n; i, o = i+1, o+2 {
		out[i] = d2k2(q0, q1, flat[o:o+2:o+2])
	}
}

func dist2Block3(q Vector, flat, out []float64) {
	q0, q1, q2 := q[0], q[1], q[2]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+12 {
		w := flat[o : o+12 : o+12]
		out[i] = d2k3(q0, q1, q2, w[0:3:3])
		out[i+1] = d2k3(q0, q1, q2, w[3:6:6])
		out[i+2] = d2k3(q0, q1, q2, w[6:9:9])
		out[i+3] = d2k3(q0, q1, q2, w[9:12:12])
	}
	for ; i < n; i, o = i+1, o+3 {
		out[i] = d2k3(q0, q1, q2, flat[o:o+3:o+3])
	}
}

func dist2Block4(q Vector, flat, out []float64) {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+16 {
		w := flat[o : o+16 : o+16]
		out[i] = d2k4(q0, q1, q2, q3, w[0:4:4])
		out[i+1] = d2k4(q0, q1, q2, q3, w[4:8:8])
		out[i+2] = d2k4(q0, q1, q2, q3, w[8:12:12])
		out[i+3] = d2k4(q0, q1, q2, q3, w[12:16:16])
	}
	for ; i < n; i, o = i+1, o+4 {
		out[i] = d2k4(q0, q1, q2, q3, flat[o:o+4:o+4])
	}
}

func dist2Block5(q Vector, flat, out []float64) {
	q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+20 {
		w := flat[o : o+20 : o+20]
		out[i] = d2k5(q0, q1, q2, q3, q4, w[0:5:5])
		out[i+1] = d2k5(q0, q1, q2, q3, q4, w[5:10:10])
		out[i+2] = d2k5(q0, q1, q2, q3, q4, w[10:15:15])
		out[i+3] = d2k5(q0, q1, q2, q3, q4, w[15:20:20])
	}
	for ; i < n; i, o = i+1, o+5 {
		out[i] = d2k5(q0, q1, q2, q3, q4, flat[o:o+5:o+5])
	}
}

func dist2Block6(q Vector, flat, out []float64) {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+24 {
		w := flat[o : o+24 : o+24]
		out[i] = d2k6(q0, q1, q2, q3, q4, q5, w[0:6:6])
		out[i+1] = d2k6(q0, q1, q2, q3, q4, q5, w[6:12:12])
		out[i+2] = d2k6(q0, q1, q2, q3, q4, q5, w[12:18:18])
		out[i+3] = d2k6(q0, q1, q2, q3, q4, q5, w[18:24:24])
	}
	for ; i < n; i, o = i+1, o+6 {
		out[i] = d2k6(q0, q1, q2, q3, q4, q5, flat[o:o+6:o+6])
	}
}

func dist2Block7(q Vector, flat, out []float64) {
	q0, q1, q2, q3, q4, q5, q6 := q[0], q[1], q[2], q[3], q[4], q[5], q[6]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+28 {
		w := flat[o : o+28 : o+28]
		out[i] = d2k7(q0, q1, q2, q3, q4, q5, q6, w[0:7:7])
		out[i+1] = d2k7(q0, q1, q2, q3, q4, q5, q6, w[7:14:14])
		out[i+2] = d2k7(q0, q1, q2, q3, q4, q5, q6, w[14:21:21])
		out[i+3] = d2k7(q0, q1, q2, q3, q4, q5, q6, w[21:28:28])
	}
	for ; i < n; i, o = i+1, o+7 {
		out[i] = d2k7(q0, q1, q2, q3, q4, q5, q6, flat[o:o+7:o+7])
	}
}

func dist2Block8(q Vector, flat, out []float64) {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := len(out)
	i, o := 0, 0
	for ; i+4 <= n; i, o = i+4, o+32 {
		w := flat[o : o+32 : o+32]
		out[i] = d2k8(q0, q1, q2, q3, q4, q5, q6, q7, w[0:8:8])
		out[i+1] = d2k8(q0, q1, q2, q3, q4, q5, q6, q7, w[8:16:16])
		out[i+2] = d2k8(q0, q1, q2, q3, q4, q5, q6, q7, w[16:24:24])
		out[i+3] = d2k8(q0, q1, q2, q3, q4, q5, q6, q7, w[24:32:32])
	}
	for ; i < n; i, o = i+1, o+8 {
		out[i] = d2k8(q0, q1, q2, q3, q4, q5, q6, q7, flat[o:o+8:o+8])
	}
}

// dist2BlockGeneric covers dimensions past the specializations with the
// window hoist only; each key runs the reference scalar loop.
func dist2BlockGeneric(q Vector, flat []float64, dim int, out []float64) {
	for i, o := 0, 0; i < len(out); i, o = i+1, o+dim {
		out[i] = dist2Generic(q, flat[o:o+dim:o+dim])
	}
}
