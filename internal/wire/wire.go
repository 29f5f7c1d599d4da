// Package wire is the HTTP/JSON protocol blobserved speaks, and blobrouted
// with it, since clients cannot tell a router from a shard. It owns the
// request and response types, the one copy of the handlers' JSON plumbing
// (WriteJSON, WriteError, DecodeBody), and an append encoder for search
// responses whose output is byte-identical to encoding/json's. See
// DESIGN.md §8.
package wire

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// KNNRequest is the POST /v1/knn body.
type KNNRequest struct {
	Query []float64 `json:"query"`
	K     int       `json:"k"`
	// Refine asks for the filter-and-refine tier: query must then be a
	// full feature vector (the refine store's dimensionality), and the
	// returned distances are exact full-space quadratic-form distances.
	Refine bool `json:"refine,omitempty"`
	// TargetRecall picks the refine tier's calibrated candidate
	// multiplier; 0 means the library default. Mutually exclusive with
	// Multiplier, valid only with Refine.
	TargetRecall float64 `json:"target_recall,omitempty"`
	// Multiplier overrides the candidate multiplier directly. Valid only
	// with Refine.
	Multiplier int `json:"multiplier,omitempty"`
	// IncludeKeys asks for each neighbor's coordinates in the response;
	// default off, since serving typically needs only (rid, dist).
	IncludeKeys bool `json:"include_keys,omitempty"`
}

// RangeRequest is the POST /v1/range body.
type RangeRequest struct {
	Query       []float64 `json:"query"`
	Radius      float64   `json:"radius"`
	IncludeKeys bool      `json:"include_keys,omitempty"`
}

// Neighbor is one search result on the wire. Dist2 carries the squared
// distance exactly as the traversal computed it — Go's JSON encoding is the
// shortest round-trippable decimal, so the float64 bits survive the wire —
// which is what lets a cluster router re-merge per-shard result lists by the
// same (Dist2, RID) total order the index itself sorts by, bit for bit.
type Neighbor struct {
	RID   int64     `json:"rid"`
	Dist  float64   `json:"dist"`
	Dist2 float64   `json:"dist2"`
	Key   []float64 `json:"key,omitempty"`
}

// SearchResponse is the POST /v1/knn and /v1/range response.
type SearchResponse struct {
	Neighbors []Neighbor `json:"neighbors"`
	// Refined reports the refine tier re-ranked the results by exact
	// full-space distance; Multiplier is the candidate multiplier the
	// filter stage used (omitted on non-refined responses).
	Refined    bool `json:"refined,omitempty"`
	Multiplier int  `json:"multiplier,omitempty"`
	// Cached reports the result was served from the result cache without an
	// index search; Coalesced that it was shared from a concurrent
	// identical request's search.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
}

// WriteRequest is the POST /v1/insert and /v1/delete body.
type WriteRequest struct {
	Key []float64 `json:"key"`
	RID int64     `json:"rid"`
}

// WriteResponse acknowledges a write.
type WriteResponse struct {
	OK bool `json:"ok"`
	// Existed is meaningful for deletes: whether the (key, rid) pair was
	// present.
	Existed bool `json:"existed,omitempty"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// buffer is a pooled response body: a 200-NN body is ~14 KB, and a fresh
// one per request is garbage the hot path cannot afford.
type buffer struct{ b []byte }

func (b *buffer) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

var bufPool = sync.Pool{New: func() any { return new(buffer) }}

// WriteJSON answers status with v encoded as JSON: a *SearchResponse by
// AppendSearchResponse, anything else by encoding/json, which write the same
// bytes. The body is encoded before the status line goes out, so a value
// neither can encode — a distance that overflowed to +Inf — answers 500 with
// a well-formed error body rather than a 200 with a broken one. It returns
// the status actually sent.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	buf := bufPool.Get().(*buffer)
	defer bufPool.Put(buf)
	var err error
	if r, ok := v.(*SearchResponse); ok {
		buf.b, err = AppendSearchResponse(buf.b[:0], r)
	} else {
		buf.b = buf.b[:0]
		err = json.NewEncoder(buf).Encode(v)
	}
	if err != nil {
		status = http.StatusInternalServerError
		buf.b = buf.b[:0]
		_ = json.NewEncoder(buf).Encode(ErrorResponse{Error: "encode response: " + err.Error()})
	}
	return write(w, status, buf.b)
}

// neighborsField opens a search response, ahead of its neighbours array.
var neighborsField = []byte(`{"neighbors":`)

// WriteSearch answers 200 with a search response whose neighbours array was
// encoded earlier by AppendNeighbors; r supplies every other field and its
// Neighbors is ignored. The body is the one WriteJSON would send for r with
// those neighbours.
func WriteSearch(w http.ResponseWriter, neighbors []byte, r *SearchResponse) int {
	return write(w, http.StatusOK, neighborsField, neighbors, appendTail(make([]byte, 0, maxTail), r))
}

// WriteError answers status with a JSON error body; 429 and 503 carry
// Retry-After, the client's cue to back off and retry.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) int {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	return WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody decodes a JSON request body of at most 1 MiB into v, refusing
// fields v does not have.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// write sends the concatenation of parts as a JSON body with an explicit
// Content-Length.
func write(w http.ResponseWriter, status int, parts ...[]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		// A failed write means the client went away; the status is out.
		if _, err := w.Write(p); err != nil {
			break
		}
	}
	return status
}
