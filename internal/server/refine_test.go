package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"blobindex"
	"blobindex/internal/wire"
)

// buildRefineIndex builds a real filter-and-refine deployment: full-dim
// features reduced to an indexable dimensionality, with the full features in
// an attached sidecar.
func buildRefineIndex(t *testing.T, n, fullDim, indexDim int) (*blobindex.Index, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	feats := make([][]float64, n)
	rids := make([]int64, n)
	for i := range feats {
		f := make([]float64, fullDim)
		for d := range f {
			f[d] = rng.Float64()
		}
		feats[i] = f
		rids[i] = int64(i)
	}
	red, err := blobindex.FitReducer(feats, indexDim)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]blobindex.Point, n)
	for i, f := range feats {
		pts[i] = blobindex.Point{Key: red.Reduce(f), RID: rids[i]}
	}
	ix, err := blobindex.Build(pts, blobindex.Options{Method: blobindex.XJB, Dim: indexDim, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(t.TempDir(), "side.idx")
	if err := blobindex.SaveSidecar(side, 2048, red, rids, feats); err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachRefine(side, 32); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, feats
}

func TestServeRefineEndToEnd(t *testing.T) {
	idx, feats := buildRefineIndex(t, 900, 12, 4)
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := feats[17]
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", wire.KNNRequest{Query: q, K: 5, Refine: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refined knn status = %d, body %s", resp.StatusCode, body)
	}
	var sr wire.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Refined {
		t.Error("response not marked refined")
	}
	if want := blobindex.MultiplierForRecall(blobindex.DefaultTargetRecall); sr.Multiplier != want {
		t.Errorf("multiplier = %d, want default-recall rung %d", sr.Multiplier, want)
	}
	if len(sr.Neighbors) != 5 {
		t.Fatalf("got %d neighbors, want 5", len(sr.Neighbors))
	}
	if sr.Neighbors[0].RID != 17 {
		t.Errorf("self-query rank-1 RID = %d, want 17", sr.Neighbors[0].RID)
	}

	// Asking for the same rung through target_recall instead of the default
	// resolves to the same effective multiplier, so it shares the cache line.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn",
		wire.KNNRequest{Query: q, K: 5, Refine: true, TargetRecall: blobindex.DefaultTargetRecall})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target_recall knn status = %d, body %s", resp.StatusCode, body)
	}
	sr = wire.SearchResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Error("target_recall request at the default rung missed the cache")
	}
	if want := blobindex.MultiplierForRecall(blobindex.DefaultTargetRecall); !sr.Refined || sr.Multiplier != want {
		t.Errorf("refined cache hit reported refined=%v multiplier=%d, want true and %d", sr.Refined, sr.Multiplier, want)
	}

	// A different multiplier is a different search: no cache sharing.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn",
		wire.KNNRequest{Query: q, K: 5, Refine: true, Multiplier: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiplier knn status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached {
		t.Error("explicit multiplier=2 shared a cache line with the default rung")
	}
	if sr.Multiplier != 2 {
		t.Errorf("multiplier echo = %d, want 2", sr.Multiplier)
	}

	// An unrefined query (index-dim) over the same server still works and is
	// keyed apart from the refined ones.
	iq := []float64{0.1, 0.2, 0.3, 0.4}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", wire.KNNRequest{Query: iq, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unrefined knn status = %d, body %s", resp.StatusCode, body)
	}
	sr = wire.SearchResponse{} // omitempty: stale refine fields survive Unmarshal
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Refined || sr.Multiplier != 0 {
		t.Errorf("unrefined response carried refine fields: %+v", sr)
	}

	// Per-stage metrics and the refine store's paging traffic are visible in
	// /v1/stats.
	hr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var st Stats
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	filter, refine := st.Stages["filter"], st.Stages["refine"]
	if filter.Searches < 3 {
		t.Errorf("filter stage saw %d searches, want >= 3 (two refined + one plain)", filter.Searches)
	}
	if refine.Searches != 2 {
		t.Errorf("refine stage saw %d searches, want 2 (cache hit runs no traversal)", refine.Searches)
	}
	if refine.Candidates < 2*5*2 {
		t.Errorf("refine candidates = %d, want >= k*multiplier across both refined searches", refine.Candidates)
	}
	if filter.Candidates < refine.Candidates {
		t.Errorf("filter candidates %d < refine candidates %d", filter.Candidates, refine.Candidates)
	}
	// The lower bound may leave candidates unread, never more than all of
	// them and never fewer than the K answers of both k-NN searches.
	if refine.Scored < 2*5 || refine.Scored > refine.Candidates {
		t.Errorf("refine scored %d of %d candidates, want between 10 and all", refine.Scored, refine.Candidates)
	}
	if st.RefineBuffer == nil {
		t.Fatal("stats missing refine_buffer despite attached sidecar")
	}
	if st.RefineBuffer.Hits+st.RefineBuffer.Misses == 0 {
		t.Error("refine_buffer recorded no page traffic after refined searches")
	}
	// Each distinct sidecar page of a refined search is pinned once, so the
	// stage's page counter and the buffer's pin counter are the same number.
	if pins := st.RefineBuffer.Hits + st.RefineBuffer.Misses; refine.Pages < 2 || refine.Pages != pins || filter.Pages != 0 {
		t.Errorf("refine stage pages = %d (filter %d), refine_buffer pins = %d", refine.Pages, filter.Pages, pins)
	}
}

func TestServeRefineValidation(t *testing.T) {
	// Without a sidecar, refine requests are 501 Not Implemented so clients
	// can tell "never here" from "bad request".
	plain, err := New(Config{Index: newStub(3)})
	if err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	resp, body := postJSON(t, tsPlain.Client(), tsPlain.URL+"/v1/knn",
		wire.KNNRequest{Query: []float64{1, 2, 3}, K: 2, Refine: true})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("refine without sidecar: status = %d, want 501 (body %s)", resp.StatusCode, body)
	}

	idx, feats := buildRefineIndex(t, 300, 12, 4)
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  wire.KNNRequest
	}{
		{"refined query at index dim", wire.KNNRequest{Query: []float64{1, 2, 3, 4}, K: 2, Refine: true}},
		{"unrefined query at full dim", wire.KNNRequest{Query: feats[0], K: 2}},
		{"recall target out of range", wire.KNNRequest{Query: feats[0], K: 2, Refine: true, TargetRecall: 1.5}},
		{"recall target without refine", wire.KNNRequest{Query: []float64{1, 2, 3, 4}, K: 2, TargetRecall: 0.9}},
		{"both recall knobs", wire.KNNRequest{Query: feats[0], K: 2, Refine: true, TargetRecall: 0.9, Multiplier: 4}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
	}
}

// A search of a closed index is unavailable here (503 with Retry-After: a
// restart or another replica can serve it), not a missing index (404).
func TestServeClosedIndexUnavailable(t *testing.T) {
	idx, feats := buildRefineIndex(t, 300, 12, 4)
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	for _, req := range []wire.KNNRequest{
		{Query: []float64{0.1, 0.2, 0.3, 0.4}, K: 5},
		{Query: feats[3], K: 5, Refine: true},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", req)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("knn (refine %v) on a closed index: status %d, Retry-After %q, body %s",
				req.Refine, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/range", wire.RangeRequest{Query: []float64{0.1, 0.2, 0.3, 0.4}, Radius: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("range on a closed index: status %d, body %s", resp.StatusCode, body)
	}
}
