package wire

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"blobindex"
)

// ErrNonFinite reports a NaN or infinite number, which JSON cannot carry.
var ErrNonFinite = errors.New("wire: non-finite number")

// AppendSearchResponse appends r as encoding/json's Encoder writes it,
// trailing newline included, except that a nil Neighbors is written as []
// rather than null. On a NaN or infinite number it returns dst unchanged
// and an error wrapping ErrNonFinite.
func AppendSearchResponse(dst []byte, r *SearchResponse) ([]byte, error) {
	b := append(dst, neighborsField...)
	b = append(b, '[')
	var err error
	for i := range r.Neighbors {
		n := &r.Neighbors[i]
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendNeighbor(b, n.RID, n.Dist, n.Dist2, n.Key); err != nil {
			return dst, err
		}
	}
	b = append(b, ']')
	return appendTail(b, r), nil
}

// AppendNeighbors appends the neighbours array of the search response that
// answers with ns: each neighbour's key only when includeKeys is set. On a
// NaN or infinite number it returns dst unchanged and an error wrapping
// ErrNonFinite.
func AppendNeighbors(dst []byte, ns []blobindex.Neighbor, includeKeys bool) ([]byte, error) {
	b := append(dst, '[')
	var err error
	for i := range ns {
		n := &ns[i]
		if i > 0 {
			b = append(b, ',')
		}
		var key []float64
		if includeKeys {
			key = n.Key
		}
		if b, err = appendNeighbor(b, n.RID, n.Dist, n.Dist2, key); err != nil {
			return dst, err
		}
	}
	return append(b, ']'), nil
}

func appendNeighbor(b []byte, rid int64, dist, dist2 float64, key []float64) ([]byte, error) {
	b = append(b, `{"rid":`...)
	b = strconv.AppendInt(b, rid, 10)
	b = append(b, `,"dist":`...)
	b, err := appendFloat(b, dist)
	if err != nil {
		return b, err
	}
	b = append(b, `,"dist2":`...)
	if b, err = appendFloat(b, dist2); err != nil {
		return b, err
	}
	if len(key) > 0 {
		b = append(b, `,"key":[`...)
		for i, v := range key {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// round-trips, in exponent form only below 1e-6 or from 1e21 in magnitude,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("%w: %v", ErrNonFinite, f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// maxTail bounds appendTail's output: every optional field present and the
// longest int.
const maxTail = len(`,"refined":true,"multiplier":-9223372036854775808,"cached":false,"coalesced":false}`) + 1

// appendTail appends everything of r after its neighbours array, through
// the closing brace and the Encoder's newline.
func appendTail(b []byte, r *SearchResponse) []byte {
	if r.Refined {
		b = append(b, `,"refined":true`...)
	}
	if r.Multiplier != 0 {
		b = append(b, `,"multiplier":`...)
		b = strconv.AppendInt(b, int64(r.Multiplier), 10)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendBool(b, r.Coalesced)
	return append(b, "}\n"...)
}
