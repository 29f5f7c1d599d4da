package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"blobindex"
	"blobindex/internal/wire"
)

// TestServeOnlineIndex serves an online (WAL-backed) index: writes go through
// the durable path, /v1/stats grows the segments section, and a background
// segment reorganization (seal/compact) invalidates the result cache via the
// reorg hook exactly as a write would.
func TestServeOnlineIndex(t *testing.T) {
	idx, err := blobindex.CreateOnline(t.TempDir(),
		blobindex.Options{Method: blobindex.RTree, Dim: 3, PageSize: 2048}, blobindex.OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(5))
	for rid := int64(0); rid < 400; rid++ {
		key := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		if err := idx.Insert(blobindex.Point{Key: key, RID: rid}); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := []float64{50, 50, 50}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody(q, 10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn status = %d, body %s", resp.StatusCode, body)
	}
	var sr wire.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(sr.Neighbors))
	for i, n := range sr.Neighbors {
		want[i] = n.RID
	}

	// Identical repeat: cache hit.
	_, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody(q, 10))
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatal("repeat query missed the cache")
	}

	// A background reorganization must advance the cache generation: the
	// same query after a seal is a miss, re-run against the two-segment
	// stack, with the same answer.
	if err := idx.SealActive(); err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody(q, 10))
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached {
		t.Fatal("query served from cache across a segment reorganization")
	}
	for i, n := range sr.Neighbors {
		if n.RID != want[i] {
			t.Fatalf("post-seal neighbor %d: rid %d, want %d", i, n.RID, want[i])
		}
	}

	// Writes through the server land in the WAL.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/insert",
		wire.WriteRequest{Key: []float64{1, 2, 3}, RID: 9001})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d, body %s", resp.StatusCode, body)
	}

	// /v1/stats carries the segments section: two segments (the sealed one
	// plus the fresh active), one seal, WAL depth counting the insert above.
	hresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	seg := st.Segments
	if seg == nil {
		t.Fatal("stats: no segments section for an online index")
	}
	if seg.Count != 2 || len(seg.Segments) != 2 {
		t.Fatalf("segments count = %d (%d rows), want 2", seg.Count, len(seg.Segments))
	}
	if seg.Seals != 1 || seg.Pending != 1 {
		t.Fatalf("seals = %d, pending = %d, want 1/1", seg.Seals, seg.Pending)
	}
	if seg.ActiveGen != 2 {
		t.Fatalf("active gen = %d, want 2", seg.ActiveGen)
	}
	if seg.WALDepth != 1 {
		t.Fatalf("wal depth = %d, want 1 (the post-seal insert)", seg.WALDepth)
	}
	if seg.Segments[0].Mutable || !seg.Segments[1].Mutable {
		t.Fatalf("segment mutability rows wrong: %+v", seg.Segments)
	}
	if seg.Segments[0].Len != 400 || seg.Segments[1].Len != 1 {
		t.Fatalf("segment lens = %d/%d, want 400/1", seg.Segments[0].Len, seg.Segments[1].Len)
	}
}

// TestCompactEndpoint: POST /v1/compact seals the active segment and
// compacts everything pending on demand — the deterministic maintenance
// trigger the chaos harness lines kill -9 up against — and invalidates the
// result cache like any other reorganization. On a legacy index it is 501.
func TestCompactEndpoint(t *testing.T) {
	idx, err := blobindex.CreateOnline(t.TempDir(),
		blobindex.Options{Method: blobindex.RTree, Dim: 3, PageSize: 2048}, blobindex.OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	rng := rand.New(rand.NewSource(5))
	for rid := int64(0); rid < 300; rid++ {
		key := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		if err := idx.Insert(blobindex.Point{Key: key, RID: rid}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := []float64{50, 50, 50}
	_, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody(q, 10))
	var before wire.SearchResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status = %d, body %s", resp.StatusCode, body)
	}
	var wr wire.WriteResponse
	if err := json.Unmarshal(body, &wr); err != nil || !wr.OK {
		t.Fatalf("compact response: %v %s", err, body)
	}

	// The stack is compacted down to one immutable segment plus the fresh
	// active, and the same query re-runs (no stale cache) with the same answer.
	_, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody(q, 10))
	var after wire.SearchResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("query served from cache across an on-demand compaction")
	}
	if len(after.Neighbors) != len(before.Neighbors) {
		t.Fatalf("result size changed across compaction: %d -> %d", len(before.Neighbors), len(after.Neighbors))
	}
	for i := range after.Neighbors {
		if after.Neighbors[i].RID != before.Neighbors[i].RID {
			t.Fatalf("neighbor %d changed across compaction: rid %d -> %d",
				i, before.Neighbors[i].RID, after.Neighbors[i].RID)
		}
	}

	// Legacy index: 501, a definitive answer.
	legacy := buildIndex(t, 100, 3)
	lsrv, err := New(Config{Index: legacy})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(lsrv.Handler())
	defer lts.Close()
	resp, body = postJSON(t, ts.Client(), lts.URL+"/v1/compact", struct{}{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("legacy compact status = %d, body %s", resp.StatusCode, body)
	}
}

// TestServeLegacyIndexNoSegmentsSection pins the legacy shape: an index that
// is not online serves /v1/stats without the segments section.
func TestServeLegacyIndexNoSegmentsSection(t *testing.T) {
	idx := buildIndex(t, 200, 3)
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Segments != nil {
		t.Fatalf("legacy index grew a segments section: %+v", st.Segments)
	}
}
