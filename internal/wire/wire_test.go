package wire

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"blobindex"
)

// checkBody asserts the recorded answer's status, JSON content type and a
// Content-Length equal to its body.
func checkBody(t *testing.T, what string, rec *httptest.ResponseRecorder, sent, status int) {
	t.Helper()
	if sent != status || rec.Code != status {
		t.Errorf("%s: returned %d, sent %d, want %d", what, sent, rec.Code, status)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("%s: Content-Type %q", what, got)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("%s: Content-Length %q, body %d bytes", what, got, rec.Body.Len())
	}
}

// TestWriteJSONEncodeFailureAnswers500: a value that cannot be encoded — a
// distance that overflowed to +Inf — answers 500 with a complete JSON error
// body, whichever encoder met it, never a 200 cut short.
func TestWriteJSONEncodeFailureAnswers500(t *testing.T) {
	for what, v := range map[string]any{
		"search response": &SearchResponse{Neighbors: []Neighbor{{RID: 1, Dist: math.Inf(1), Dist2: math.Inf(1)}}},
		"other value":     map[string]float64{"x": math.NaN()},
	} {
		rec := httptest.NewRecorder()
		checkBody(t, what, rec, WriteJSON(rec, http.StatusOK, v), http.StatusInternalServerError)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error (err %v)", what, rec.Body, err)
		}
	}
}

// TestWriteSearchMatchesWriteJSON: answering from a pre-encoded neighbours
// array sends the bytes WriteJSON sends for the whole response.
func TestWriteSearchMatchesWriteJSON(t *testing.T) {
	ns := []blobindex.Neighbor{
		{RID: 9, Key: []float64{1, 2}, Dist: 0.5, Dist2: 0.25},
		{RID: -3, Key: []float64{3, 4}, Dist: 1e-7, Dist2: 1e-14},
	}
	for _, keys := range []bool{false, true} {
		r := SearchResponse{Refined: true, Multiplier: 12, Coalesced: true}
		for _, n := range ns {
			nb := Neighbor{RID: n.RID, Dist: n.Dist, Dist2: n.Dist2}
			if keys {
				nb.Key = n.Key
			}
			r.Neighbors = append(r.Neighbors, nb)
		}
		whole := httptest.NewRecorder()
		checkBody(t, "WriteJSON", whole, WriteJSON(whole, http.StatusOK, &r), http.StatusOK)

		array, err := AppendNeighbors(nil, ns, keys)
		if err != nil {
			t.Fatal(err)
		}
		parts := httptest.NewRecorder()
		checkBody(t, "WriteSearch", parts, WriteSearch(parts, array, &r), http.StatusOK)
		if parts.Body.String() != whole.Body.String() {
			t.Errorf("keys %v: WriteSearch sent %q, WriteJSON %q", keys, parts.Body, whole.Body)
		}
	}
}

func TestWriteErrorRetryAfter(t *testing.T) {
	for status, retry := range map[int]string{
		http.StatusBadRequest:          "",
		http.StatusTooManyRequests:     "1",
		http.StatusServiceUnavailable:  "1",
		http.StatusInternalServerError: "",
	} {
		rec := httptest.NewRecorder()
		checkBody(t, "error", rec, WriteError(rec, status, "k must be %d", 5), status)
		if got := rec.Header().Get("Retry-After"); got != retry {
			t.Errorf("%d: Retry-After %q, want %q", status, got, retry)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "k must be 5" {
			t.Errorf("%d: body %q (err %v)", status, rec.Body, err)
		}
	}
}
