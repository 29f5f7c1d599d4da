package wire

import (
	"errors"
	"fmt"
	"strconv"
)

// ErrMalformed reports a search response body ScanSearchResponse refuses.
var ErrMalformed = errors.New("wire: malformed search response")

// Span is one neighbour of an encoded search response: the (Dist2, RID)
// sort key a merge orders by, and the bytes body[Start:End] of its JSON
// object.
type Span struct {
	Dist2      float64
	RID        int64
	Start, End int
}

// Scan is what ScanSearchResponse reads from a body: its neighbours in
// body order, and the tail fields a merged answer is built from.
type Scan struct {
	Neighbors  []Span
	Refined    bool
	Multiplier int
}

// ScanSearchResponse reads a search response body without decoding it,
// appending one Span per neighbour to dst[:0]. It accepts exactly what
// AppendSearchResponse writes: fields in its order, no whitespace, the
// Encoder's newline last. Every number must re-format to its own bytes —
// an rid through strconv.AppendInt, a float through appendFloat — so a span
// copied verbatim is what decoding the neighbour and encoding it again
// would write. Anything else is an error wrapping ErrMalformed.
func ScanSearchResponse(body []byte, dst []Span) (Scan, error) {
	s := scanner{b: body}
	sc := Scan{Neighbors: dst[:0]}
	if !s.lit(`{"neighbors":[`) {
		return Scan{}, s.fail("neighbours array")
	}
	if !s.lit("]") {
		for {
			sp, ok := s.neighbor()
			if !ok {
				return Scan{}, s.fail(fmt.Sprintf("neighbour %d", len(sc.Neighbors)))
			}
			sc.Neighbors = append(sc.Neighbors, sp)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return Scan{}, s.fail("neighbours array")
			}
		}
	}
	sc.Refined = s.lit(`,"refined":true`)
	if s.lit(`,"multiplier":`) {
		// A zero multiplier is omitted, never written.
		m, ok := s.int()
		if !ok || m == 0 || int64(int(m)) != m {
			return Scan{}, s.fail("multiplier")
		}
		sc.Multiplier = int(m)
	}
	if !s.lit(`,"cached":`) || !s.bool() || !s.lit(`,"coalesced":`) || !s.bool() ||
		!s.lit("}\n") || s.pos != len(body) {
		return Scan{}, s.fail("tail")
	}
	return sc, nil
}

// scanner walks a body left to right; each method consumes what it
// matches and reports whether it matched.
type scanner struct {
	b   []byte
	pos int
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("%w: %s at byte %d", ErrMalformed, what, s.pos)
}

func (s *scanner) lit(l string) bool {
	if len(s.b)-s.pos < len(l) || string(s.b[s.pos:s.pos+len(l)]) != l {
		return false
	}
	s.pos += len(l)
	return true
}

func (s *scanner) bool() bool { return s.lit("true") || s.lit("false") }

// number consumes the longest run of bytes a JSON number can hold; int and
// float then insist the run is the canonical form of the value it parses
// to.
func (s *scanner) number() []byte {
	start := s.pos
	for ; s.pos < len(s.b); s.pos++ {
		if c := s.b[s.pos]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	return s.b[start:s.pos]
}

func (s *scanner) int() (int64, bool) {
	tok := s.number()
	n, err := strconv.ParseInt(string(tok), 10, 64)
	var buf [24]byte
	return n, err == nil && string(strconv.AppendInt(buf[:0], n, 10)) == string(tok)
}

func (s *scanner) float() (float64, bool) {
	tok := s.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, false
	}
	var buf [32]byte
	out, err := appendFloat(buf[:0], f)
	return f, err == nil && string(out) == string(tok)
}

// neighbor consumes one neighbour object as appendNeighbor writes it.
func (s *scanner) neighbor() (Span, bool) {
	sp := Span{Start: s.pos}
	var ok bool
	if !s.lit(`{"rid":`) {
		return sp, false
	}
	if sp.RID, ok = s.int(); !ok || !s.lit(`,"dist":`) {
		return sp, false
	}
	if _, ok = s.float(); !ok || !s.lit(`,"dist2":`) {
		return sp, false
	}
	if sp.Dist2, ok = s.float(); !ok {
		return sp, false
	}
	if s.lit(`,"key":[`) {
		for {
			if _, ok = s.float(); !ok {
				return sp, false
			}
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return sp, false
			}
		}
	}
	if !s.lit("}") {
		return sp, false
	}
	sp.End = s.pos
	return sp, true
}
