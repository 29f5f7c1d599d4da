package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blobindex"
)

// checkAppend holds the encoder to encoding/json on r: AppendSearchResponse
// must write exactly json.Marshal(r) plus the Encoder's newline (with nil
// neighbours as []), AppendNeighbors exactly the marshalled neighbours
// array with and without keys, and wherever encoding/json fails on a
// non-finite number both must fail with dst untouched.
func checkAppend(t *testing.T, name string, r *SearchResponse) {
	t.Helper()
	prefix := []byte("prefix")
	dst := append(make([]byte, 0, 64), prefix...)

	marshalled := *r
	if marshalled.Neighbors == nil {
		marshalled.Neighbors = []Neighbor{}
	}
	want, werr := json.Marshal(&marshalled)
	got, gerr := AppendSearchResponse(dst, r)
	checkSame(t, name+"/response", prefix, got, gerr, append(want, '\n'), werr)

	ns := make([]blobindex.Neighbor, len(r.Neighbors))
	stripped := make([]Neighbor, len(r.Neighbors))
	for i, n := range r.Neighbors {
		ns[i] = blobindex.Neighbor{RID: n.RID, Key: n.Key, Dist: n.Dist, Dist2: n.Dist2}
		stripped[i] = Neighbor{RID: n.RID, Dist: n.Dist, Dist2: n.Dist2}
	}
	for _, keys := range []bool{false, true} {
		list := stripped
		if keys {
			list = marshalled.Neighbors
		}
		want, werr := json.Marshal(list)
		got, gerr := AppendNeighbors(dst, ns, keys)
		checkSame(t, name+"/neighbors", prefix, got, gerr, want, werr)
	}
}

func checkSame(t *testing.T, name string, prefix, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if werr != nil {
		if gerr == nil || !errors.Is(gerr, ErrNonFinite) {
			t.Errorf("%s: encoding/json fails (%v), append returned %v", name, werr, gerr)
		}
		if !bytes.Equal(got, prefix) {
			t.Errorf("%s: failed append changed dst to %q", name, got)
		}
		return
	}
	if gerr != nil {
		t.Errorf("%s: append failed: %v; encoding/json wrote %s", name, gerr, want)
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("%s:\n got %q\nwant %q", name, got[min(len(prefix), len(got)):], want)
	}
}

// edgeFloats are the numbers where encoding/json's float format changes
// shape: both sides of the 1e-6 and 1e21 exponent cut-offs, a padded
// negative exponent (e-07), the extremes of the range, and negative zero.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 9.99999e-7,
	math.Nextafter(1e-6, 0), 1e-6, 1e-5, 0.1, 1, 123456789.125, 1e20,
	math.Nextafter(1e21, 0), 1e21, 1e22, math.MaxFloat64, -math.MaxFloat64,
	-1.5e-10, 2.5e-300, 1.7976931348623157e308 / 3,
}

// appendSeed is one crafted response. nonFinite marks the seeds built to
// reach the encoder's refusal of NaN and ±Inf.
type appendSeed struct {
	name      string
	r         SearchResponse
	nonFinite bool
}

func appendSeeds() []appendSeed {
	var seeds []appendSeed
	add := func(name string, r SearchResponse) {
		seeds = append(seeds, appendSeed{name: name, r: r})
	}
	add("nil neighbours", SearchResponse{})
	add("no neighbours", SearchResponse{Neighbors: []Neighbor{}})
	for i := 0; i < 16; i++ {
		r := SearchResponse{
			Neighbors: []Neighbor{{RID: 1, Dist: 0.5, Dist2: 0.25}},
			Refined:   i&1 != 0,
			Cached:    i&4 != 0,
			Coalesced: i&8 != 0,
		}
		if i&2 != 0 {
			r.Multiplier = 12
		}
		add("flags", r)
	}
	add("negative multiplier", SearchResponse{Multiplier: math.MinInt64})
	for _, rid := range []int64{0, -1, 42, math.MinInt64, math.MaxInt64} {
		add("rid", SearchResponse{Neighbors: []Neighbor{{RID: rid}}})
	}
	for _, f := range edgeFloats {
		add("edge float", SearchResponse{Neighbors: []Neighbor{
			{RID: 3, Dist: f, Dist2: -f, Key: []float64{f, 1, -f}},
		}})
	}
	add("keys nil, empty, set", SearchResponse{Neighbors: []Neighbor{
		{RID: 1, Dist: 1, Dist2: 1},
		{RID: 2, Dist: 2, Dist2: 4, Key: []float64{}},
		{RID: 3, Dist: 3, Dist2: 9, Key: []float64{0.5, -2.25e-9}},
	}, Refined: true, Multiplier: 6, Cached: true})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 3; field++ {
			n := Neighbor{RID: 5, Dist: 1, Dist2: 1, Key: []float64{1, 2}}
			switch field {
			case 0:
				n.Dist = bad
			case 1:
				n.Dist2 = bad
			case 2:
				n.Key[1] = bad
			}
			seeds = append(seeds, appendSeed{
				name:      "non-finite",
				r:         SearchResponse{Neighbors: []Neighbor{{RID: 4, Dist: 0.5, Dist2: 0.25}, n}},
				nonFinite: true,
			})
		}
	}
	return seeds
}

// randomFloat draws from every shape of float64: raw bit patterns (NaN and
// ±Inf included), small and large magnitudes, and ordinary distances.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 2:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	default:
		return rng.Float64() * 10
	}
}

func randomResponse(rng *rand.Rand) *SearchResponse {
	r := &SearchResponse{
		Refined:   rng.Intn(2) == 0,
		Cached:    rng.Intn(2) == 0,
		Coalesced: rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		r.Multiplier = rng.Intn(40) - 8
	}
	if n := rng.Intn(12); n > 0 {
		r.Neighbors = make([]Neighbor, n)
		for i := range r.Neighbors {
			nb := Neighbor{RID: rng.Int63() - rng.Int63(), Dist: randomFloat(rng), Dist2: randomFloat(rng)}
			if k := rng.Intn(4); k > 0 {
				nb.Key = make([]float64, k-1)
				for d := range nb.Key {
					nb.Key[d] = randomFloat(rng)
				}
			}
			r.Neighbors[i] = nb
		}
	}
	return r
}

func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, seed := range appendSeeds() {
		checkAppend(t, seed.name, &seed.r)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 5000; i++ {
		checkAppend(t, "random", randomResponse(rng))
	}
}

// fuzzBytes and fromFuzzBytes map a response to the fuzzer's input and
// back: a flags byte (refined, cached, coalesced, nil neighbours), an
// 8-byte multiplier, then per neighbour a key-length byte (0 nil, 1 empty,
// n ≥ 2 n-1 coordinates), the RID and the float bits of Dist, Dist2 and
// each coordinate. fromFuzzBytes drops a truncated last neighbour.
func fuzzBytes(r *SearchResponse) []byte {
	var flags byte
	for i, set := range []bool{r.Refined, r.Cached, r.Coalesced, r.Neighbors == nil} {
		if set {
			flags |= 1 << i
		}
	}
	b := binary.LittleEndian.AppendUint64([]byte{flags}, uint64(r.Multiplier))
	for _, n := range r.Neighbors {
		keyLen := byte(0)
		if n.Key != nil {
			keyLen = byte(len(n.Key) + 1)
		}
		b = append(b, keyLen)
		b = binary.LittleEndian.AppendUint64(b, uint64(n.RID))
		for _, f := range append([]float64{n.Dist, n.Dist2}, n.Key...) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

func fromFuzzBytes(data []byte) *SearchResponse {
	if len(data) < 9 {
		return &SearchResponse{}
	}
	flags := data[0]
	r := &SearchResponse{
		Refined:    flags&1 != 0,
		Cached:     flags&2 != 0,
		Coalesced:  flags&4 != 0,
		Multiplier: int(int64(binary.LittleEndian.Uint64(data[1:]))),
	}
	if flags&8 == 0 {
		r.Neighbors = []Neighbor{}
	}
	word := func(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }
	for p := data[9:]; len(p) > 0; {
		keyLen := int(p[0])
		coords := max(keyLen-1, 0)
		size := 1 + 8*(3+coords)
		if len(p) < size {
			break
		}
		n := Neighbor{
			RID:   int64(word(p[1:], 0)),
			Dist:  math.Float64frombits(word(p[1:], 1)),
			Dist2: math.Float64frombits(word(p[1:], 2)),
		}
		if keyLen > 0 {
			n.Key = make([]float64, coords)
			for d := range n.Key {
				n.Key[d] = math.Float64frombits(word(p[1:], 3+d))
			}
		}
		r.Neighbors = append(r.Neighbors, n)
		p = p[size:]
	}
	return r
}

// TestAppendSearchResponseSeeds checks that every crafted seed reaches the
// fuzzer intact — its input decodes to the seed bit for bit — and is refused
// exactly when it was built to be, so the fuzz corpus keeps covering what it
// claims to.
func TestAppendSearchResponseSeeds(t *testing.T) {
	for _, seed := range appendSeeds() {
		back := fromFuzzBytes(fuzzBytes(&seed.r))
		if !reflect.DeepEqual(fuzzBytes(back), fuzzBytes(&seed.r)) || (back.Neighbors == nil) != (seed.r.Neighbors == nil) {
			t.Errorf("%s: fuzz input decodes to %+v, want %+v", seed.name, back, seed.r)
		}
		if _, err := AppendSearchResponse(nil, back); (err != nil) != seed.nonFinite {
			t.Errorf("%s: AppendSearchResponse err = %v, built to fail: %v", seed.name, err, seed.nonFinite)
		}
	}
}

// FuzzAppendSearchResponse holds the append encoder to encoding/json on
// arbitrary responses: the same bytes, or the same refusal with dst
// untouched.
func FuzzAppendSearchResponse(f *testing.F) {
	for _, seed := range appendSeeds() {
		f.Add(fuzzBytes(&seed.r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAppend(t, "fuzz", fromFuzzBytes(data))
	})
}
