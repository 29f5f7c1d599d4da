package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"blobindex"
)

// checkScan holds ScanSearchResponse to its contract on body. It must
// accept exactly the bodies encoding/json decodes and AppendSearchResponse
// then re-encodes to the same bytes; and where it accepts, every span must
// carry the decoded neighbour's Dist2 bits and RID and hold exactly the
// bytes AppendNeighbors writes for it. It reports whether body was
// accepted.
func checkScan(t *testing.T, name string, body []byte) bool {
	t.Helper()
	sc, err := ScanSearchResponse(body, nil)
	var r SearchResponse
	fixed := json.Unmarshal(body, &r) == nil
	if fixed {
		again, aerr := AppendSearchResponse(nil, &r)
		fixed = aerr == nil && bytes.Equal(again, body)
	}
	if (err == nil) != fixed {
		t.Errorf("%s: scan error %v, but decode-then-encode reproduces the body: %v\n%q", name, err, fixed, body)
		return err == nil
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: scan error %v does not wrap ErrMalformed", name, err)
		}
		return false
	}
	if len(sc.Neighbors) != len(r.Neighbors) || sc.Refined != r.Refined || sc.Multiplier != r.Multiplier {
		t.Errorf("%s: scanned %d neighbours, refined %v, multiplier %d; decoded %d, %v, %d",
			name, len(sc.Neighbors), sc.Refined, sc.Multiplier, len(r.Neighbors), r.Refined, r.Multiplier)
		return true
	}
	for i, sp := range sc.Neighbors {
		n := r.Neighbors[i]
		want, werr := AppendNeighbors(nil, []blobindex.Neighbor{{RID: n.RID, Key: n.Key, Dist: n.Dist, Dist2: n.Dist2}}, true)
		if werr != nil || math.Float64bits(sp.Dist2) != math.Float64bits(n.Dist2) || sp.RID != n.RID ||
			!bytes.Equal(body[sp.Start:sp.End], want[1:len(want)-1]) {
			t.Errorf("%s: neighbour %d: span (%x, %d) %q, decoded (%x, %d) encodes as %s",
				name, i, math.Float64bits(sp.Dist2), sp.RID, body[sp.Start:sp.End], math.Float64bits(n.Dist2), n.RID, want)
		}
	}
	return true
}

// scanSeed is one crafted body and whether the scanner must accept it.
type scanSeed struct {
	name   string
	body   string
	accept bool
}

const (
	seedNeighbor = `{"rid":7,"dist":0.5,"dist2":0.25}`
	seedTail     = `,"cached":false,"coalesced":false}` + "\n"
)

// seedBody wraps neighbours (already joined) in a response with the given
// tail.
func seedBody(neighbors, tail string) string {
	return `{"neighbors":[` + neighbors + `]` + tail
}

var scanSeeds = []scanSeed{
	{"empty array", seedBody("", seedTail), true},
	{"one neighbour", seedBody(seedNeighbor, seedTail), true},
	{"two neighbours", seedBody(seedNeighbor+`,{"rid":-3,"dist":1,"dist2":1}`, seedTail), true},
	{"key present", seedBody(`{"rid":1,"dist":0.5,"dist2":0.25,"key":[0.1,-2,3e-9]}`, seedTail), true},
	{"refined and multiplier", seedBody(seedNeighbor, `,"refined":true,"multiplier":12`+seedTail), true},
	{"multiplier alone", seedBody(seedNeighbor, `,"multiplier":-4`+seedTail), true},
	{"cached and coalesced", seedBody(seedNeighbor, `,"cached":true,"coalesced":true}`+"\n"), true},
	{"negative zero", seedBody(`{"rid":0,"dist":-0,"dist2":-0}`, seedTail), true},
	{"1e-7", seedBody(`{"rid":1,"dist":1e-7,"dist2":1e-14}`, seedTail), true},
	{"1e+21", seedBody(`{"rid":1,"dist":1e+21,"dist2":1e+42}`, seedTail), true},
	{"largest rid", seedBody(`{"rid":9223372036854775807,"dist":2,"dist2":4}`, seedTail), true},

	{"non-canonical 0.50", seedBody(`{"rid":7,"dist":0.50,"dist2":0.25}`, seedTail), false},
	{"capital exponent 1E-7", seedBody(`{"rid":1,"dist":1E-7,"dist2":1e-14}`, seedTail), false},
	{"padded exponent 1e-07", seedBody(`{"rid":1,"dist":1e-07,"dist2":1e-14}`, seedTail), false},
	{"exponent below 1e21", seedBody(`{"rid":1,"dist":1e+20,"dist2":1}`, seedTail), false},
	{"overflowing float", seedBody(`{"rid":1,"dist":1e400,"dist2":1}`, seedTail), false},
	{"leading-zero rid", seedBody(`{"rid":07,"dist":0.5,"dist2":0.25}`, seedTail), false},
	{"negative-zero rid", seedBody(`{"rid":-0,"dist":0.5,"dist2":0.25}`, seedTail), false},
	{"plus-signed rid", seedBody(`{"rid":+7,"dist":0.5,"dist2":0.25}`, seedTail), false},
	{"overflowing rid", seedBody(`{"rid":9223372036854775808,"dist":2,"dist2":4}`, seedTail), false},
	{"leading whitespace", " " + seedBody(seedNeighbor, seedTail), false},
	{"space after a colon", seedBody(`{"rid": 7,"dist":0.5,"dist2":0.25}`, seedTail), false},
	{"reordered field", seedBody(`{"rid":7,"dist2":0.25,"dist":0.5}`, seedTail), false},
	{"empty key", seedBody(`{"rid":7,"dist":0.5,"dist2":0.25,"key":[]}`, seedTail), false},
	{"null neighbours", `{"neighbors":null` + seedTail, false},
	{"refined false", seedBody(seedNeighbor, `,"refined":false`+seedTail), false},
	{"zero multiplier", seedBody(seedNeighbor, `,"multiplier":0`+seedTail), false},
	{"multiplier before refined", seedBody(seedNeighbor, `,"multiplier":12,"refined":true`+seedTail), false},
	{"trailing comma", seedBody(seedNeighbor+",", seedTail), false},
	{"truncated body", seedBody(seedNeighbor, seedTail)[:40], false},
	{"no newline", seedBody(seedNeighbor, `,"cached":false,"coalesced":false}`), false},
	{"trailing bytes", seedBody(seedNeighbor, seedTail) + "{}", false},
	{"empty", "", false},
}

// TestScanSearchResponseSeeds checks that every crafted body is accepted or
// refused as it was built to be, and that each verdict agrees with the
// decode-then-encode oracle, so the fuzz corpus keeps covering what it
// claims to.
func TestScanSearchResponseSeeds(t *testing.T) {
	for _, seed := range scanSeeds {
		if got := checkScan(t, seed.name, []byte(seed.body)); got != seed.accept {
			t.Errorf("%s: accepted %v, built to be accepted %v", seed.name, got, seed.accept)
		}
	}
}

// TestScanAcceptsEveryEncoding is the completeness half: every body
// AppendSearchResponse can write is accepted, and scans soundly.
func TestScanAcceptsEveryEncoding(t *testing.T) {
	check := func(name string, r *SearchResponse) {
		body, err := AppendSearchResponse(nil, r)
		if err != nil {
			return // non-finite: nothing is written, so there is nothing to scan
		}
		if !checkScan(t, name, body) {
			t.Errorf("%s: refused the encoder's own output %q", name, body)
		}
	}
	for _, seed := range appendSeeds() {
		check(seed.name, &seed.r)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		check("random", randomResponse(rng))
	}
}

// TestScanReusesDst: a scan into a large enough dst allocates nothing.
func TestScanReusesDst(t *testing.T) {
	r := &SearchResponse{Neighbors: make([]Neighbor, 200)}
	for i := range r.Neighbors {
		r.Neighbors[i] = Neighbor{RID: int64(1000 + i), Dist: float64(i) / 7, Dist2: float64(i) * float64(i) / 49}
	}
	body, err := AppendSearchResponse(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Span, 0, 200)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ScanSearchResponse(body, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("scan of a 200-neighbour body allocates %v times", n)
	}
}

// FuzzScanSearchResponse holds the scanner to the decode-then-encode oracle
// on arbitrary bytes: it accepts exactly that oracle's fixed points, and its
// spans are the encoder's bytes for the decoded neighbours.
func FuzzScanSearchResponse(f *testing.F) {
	for _, seed := range scanSeeds {
		f.Add([]byte(seed.body))
	}
	for _, seed := range appendSeeds() {
		if body, err := AppendSearchResponse(nil, &seed.r); err == nil {
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, "fuzz", body)
	})
}
