package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The block kernels in flatblock.go claim Float64bits-identity with the
// per-key scalar loops. These tests sweep every specialized dimension plus
// the generic fallback (including the 218-d Blobworld feature width) and
// every block length around the 4-wide lanes, so all of 0–3 remainder keys
// are exercised.

var blockDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 218}

func TestDist2FlatBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range blockDims {
		for n := 0; n <= 19; n++ { // 0..19 covers every remainder class, incl. empty
			q := randVec(rng, dim)
			flat := make([]float64, n*dim)
			for i := range flat {
				flat[i] = rng.NormFloat64() * 10
			}
			got := Dist2FlatBlock(q, flat, dim, nil)
			if len(got) != n {
				t.Fatalf("dim %d n %d: got %d distances", dim, n, len(got))
			}
			for i := 0; i < n; i++ {
				want := Dist2Flat(q, flat, i, dim)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("dim %d n %d key %d: block=%v scalar=%v", dim, n, i, got[i], want)
				}
			}
		}
	}
}

func TestDist2FlatBlockAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const dim, n = 5, 7
	q := randVec(rng, dim)
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	prefix := []float64{-1, -2, -3}
	got := Dist2FlatBlock(q, flat, dim, prefix)
	if len(got) != len(prefix)+n {
		t.Fatalf("appended length %d, want %d", len(got), len(prefix)+n)
	}
	for i, v := range []float64{-1, -2, -3} {
		if got[i] != v {
			t.Fatalf("prefix clobbered: got[%d]=%v", i, got[i])
		}
	}
	for i := 0; i < n; i++ {
		want := Dist2Flat(q, flat, i, dim)
		if math.Float64bits(got[len(prefix)+i]) != math.Float64bits(want) {
			t.Fatalf("key %d: block=%v scalar=%v", i, got[len(prefix)+i], want)
		}
	}
}

func TestRangeFlatBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dim := range blockDims {
		for n := 0; n <= 19; n++ {
			q := randVec(rng, dim)
			flat := make([]float64, n*dim)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			// Median-ish radius so both keep and drop branches run.
			radius2 := float64(dim) * 0.8
			idx, dists := RangeFlatBlock(q, flat, dim, radius2, nil, nil)
			if len(idx) != len(dists) {
				t.Fatalf("dim %d n %d: %d indices vs %d distances", dim, n, len(idx), len(dists))
			}
			k := 0
			for i := 0; i < n; i++ {
				want := Dist2Flat(q, flat, i, dim)
				if want > radius2 {
					continue
				}
				if k >= len(idx) {
					t.Fatalf("dim %d n %d: key %d missing from range output", dim, n, i)
				}
				if int(idx[k]) != i || math.Float64bits(dists[k]) != math.Float64bits(want) {
					t.Fatalf("dim %d n %d: kept[%d]=(%d,%v), want (%d,%v)", dim, n, k, idx[k], dists[k], i, want)
				}
				k++
			}
			if k != len(idx) {
				t.Fatalf("dim %d n %d: %d extra keys kept", dim, n, len(idx)-k)
			}
		}
	}
}

func TestRangeFlatBlockAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const dim, n = 5, 9
	q := randVec(rng, dim)
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64() * 0.3
	}
	idxPrefix := []int32{100, 200}
	distPrefix := []float64{-5, -6}
	idx, dists := RangeFlatBlock(q, flat, dim, 1.0, idxPrefix, distPrefix)
	if idx[0] != 100 || idx[1] != 200 || dists[0] != -5 || dists[1] != -6 {
		t.Fatalf("prefixes clobbered: idx=%v dists=%v", idx[:2], dists[:2])
	}
	if len(idx)-2 != len(dists)-2 {
		t.Fatalf("suffix lengths differ: %d vs %d", len(idx)-2, len(dists)-2)
	}
	for k := 2; k < len(idx); k++ {
		want := Dist2Flat(q, flat, int(idx[k]), dim)
		if math.Float64bits(dists[k]) != math.Float64bits(want) {
			t.Fatalf("kept key %d: dist=%v scalar=%v", idx[k], dists[k], want)
		}
	}
}

// FuzzDist2FlatBlock drives arbitrary coordinates and block shapes through
// the block kernels and cross-checks the scalar path bit for bit.
func FuzzDist2FlatBlock(f *testing.F) {
	f.Add(uint8(5), uint8(7), 1.5, -2.25, 0.0, 3.75, -1e9, 2.5, 0.125, -0.5)
	f.Add(uint8(1), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(8), uint8(13), 1e-300, -1e300, 42.0, -42.0, 1e-9, 7.0, -7.0, 0.5)
	f.Add(uint8(218), uint8(3), 0.25, -0.75, 1.0, 2.0, -3.0, 4.0, -5.0, 6.0)
	f.Fuzz(func(t *testing.T, d, m uint8, a, b, c, e, g, h, i, j float64) {
		dim := int(d)%10 + 1
		if d == 218 {
			dim = 218 // keep the seed exercising the generic path at feature width
		}
		n := int(m) % 20
		coords := []float64{a, b, c, e, g, h, i, j}
		for _, v := range coords {
			if math.IsNaN(v) {
				return // NaN breaks comparability of every distance kernel
			}
		}
		q := make(Vector, dim)
		flat := make([]float64, n*dim)
		for k := range q {
			q[k] = coords[k%8]
		}
		for k := range flat {
			flat[k] = coords[(k+3)%8]
		}
		got := Dist2FlatBlock(q, flat, dim, nil)
		for k := 0; k < n; k++ {
			want := Dist2Flat(q, flat, k, dim)
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("dim %d n %d key %d: block=%v scalar=%v", dim, n, k, got[k], want)
			}
		}
	})
}

// The block kernels feed pooled scratch in the hot query path; with capacity
// already in the destination slices they must not touch the heap.
func TestBlockKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const dim, n = 5, 33
	q := randVec(rng, dim)
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	dst := make([]float64, 0, n)
	idx := make([]int32, 0, n)
	var sinkF float64
	var sinkI int
	checks := []struct {
		name string
		fn   func()
	}{
		{"Dist2FlatBlock", func() { dst = Dist2FlatBlock(q, flat, dim, dst[:0]); sinkF += dst[0] }},
		{"RangeFlatBlock", func() {
			idx, dst = RangeFlatBlock(q, flat, dim, float64(dim), idx[:0], dst[:0])
			sinkI += len(idx)
		}},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call; want 0", c.name, avg)
		}
	}
	_, _ = sinkF, sinkI
}
