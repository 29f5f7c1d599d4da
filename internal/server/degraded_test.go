package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blobindex"
	"blobindex/internal/wire"
)

// faultyIndex is a Queryer whose searches and writes fail with whatever
// error is loaded into err — typically a wrapped storage sentinel — so the
// degraded-mode tests can drive the server's error classification without a
// real failing disk.
type faultyIndex struct {
	dim int
	err atomic.Pointer[error]
	res []blobindex.Neighbor
}

func newFaulty(dim int) *faultyIndex {
	return &faultyIndex{dim: dim, res: []blobindex.Neighbor{{RID: 3, Dist: 1}}}
}

func (f *faultyIndex) setErr(err error) { f.err.Store(&err) }

func (f *faultyIndex) current() error {
	if p := f.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (f *faultyIndex) Search(ctx context.Context, req blobindex.SearchRequest) (blobindex.SearchResponse, error) {
	if err := f.current(); err != nil {
		return blobindex.SearchResponse{}, err
	}
	return blobindex.SearchResponse{Neighbors: f.res}, nil
}

func (f *faultyIndex) Insert(p blobindex.Point) error { return f.current() }
func (f *faultyIndex) Delete(key []float64, rid int64) (bool, error) {
	return false, f.current()
}
func (f *faultyIndex) Tighten() error { return f.current() }
func (f *faultyIndex) Options() blobindex.Options {
	return blobindex.Options{Method: blobindex.RTree, Dim: f.dim}
}
func (f *faultyIndex) Stats() blobindex.Stats {
	return blobindex.Stats{Method: blobindex.RTree, Len: len(f.res)}
}
func (f *faultyIndex) BufferStats() (blobindex.BufferStats, bool) {
	return blobindex.BufferStats{Retries: 5, GaveUp: 1}, true
}
func (f *faultyIndex) RefineDim() (int, bool) { return 0, false }
func (f *faultyIndex) RefineStats() (blobindex.BufferStats, bool) {
	return blobindex.BufferStats{}, false
}

// TestStorageErrorStatuses pins the degraded-mode HTTP contract: a transient
// storage failure maps to 503 with Retry-After (worth the client retrying),
// corruption to 500 (it is not), on both the search and write paths.
func TestStorageErrorStatuses(t *testing.T) {
	idx := newFaulty(2)
	srv, err := New(Config{Index: idx, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantRetry  bool
	}{
		{"transient", fmt.Errorf("pin page 4: %w", blobindex.ErrStorageTransient), http.StatusServiceUnavailable, true},
		{"corrupt", fmt.Errorf("pin page 4: %w", blobindex.ErrStorageCorrupt), http.StatusInternalServerError, false},
	}
	for i, tc := range cases {
		idx.setErr(tc.err)
		// Distinct queries so nothing is coalesced or cached across cases.
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{float64(i), 0}, 5))
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s search: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.wantStatus, body)
		}
		if got := resp.Header.Get("Retry-After") != ""; got != tc.wantRetry {
			t.Errorf("%s search: Retry-After present = %v, want %v", tc.name, got, tc.wantRetry)
		}
		resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/insert", wire.WriteRequest{Key: []float64{1, 1}, RID: 9})
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s insert: status = %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}

	st := srv.Stats()
	if st.Storage.TransientErrors != 2 || st.Storage.CorruptErrors != 2 {
		t.Errorf("storage counters = %+v, want 2 transient + 2 corrupt", st.Storage)
	}
	if st.Buffer == nil || st.Buffer.Retries != 5 || st.Buffer.GaveUp != 1 {
		t.Errorf("buffer stats did not surface retry counters: %+v", st.Buffer)
	}
}

// TestReadyzFlipsAndRecovers drives the readiness probe through its whole
// arc on a fake clock: healthy → degraded once enough windowed failures
// accumulate → healthy again after the window slides past them.
func TestReadyzFlipsAndRecovers(t *testing.T) {
	idx := newFaulty(2)
	srv, err := New(Config{
		Index:           idx,
		CacheEntries:    -1,
		ReadyWindow:     8 * time.Second,
		ReadyErrorRate:  0.5,
		ReadyMinSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	clock.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	srv.health.now = func() time.Time { return time.Unix(0, clock.Load()) }

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyz := func() (int, string) {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("fresh server readyz = %d, want 200", code)
	}

	// Fail every search; below min samples the server must stay ready.
	idx.setErr(fmt.Errorf("read: %w", blobindex.ErrStorageTransient))
	for i := 0; i < 3; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{float64(i), 1}, 5))
	}
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("readyz below min samples = %d, want 200", code)
	}

	// Past min samples with a 100% error rate: degraded.
	for i := 3; i < 6; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{float64(i), 1}, 5))
	}
	code, body := readyz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz under faults = %d, want 503 (body %q)", code, body)
	}
	if !strings.Contains(body, "degraded") {
		t.Errorf("degraded readyz body = %q", body)
	}
	st := srv.Stats()
	if st.Storage.Ready || st.Storage.WindowErrorRate != 1 {
		t.Errorf("stats storage section = %+v, want ready=false rate=1", st.Storage)
	}

	// Slide the clock past the window: the failures age out and the probe
	// recovers without any operator intervention.
	clock.Add(int64(10 * time.Second))
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after window slid = %d, want 200", code)
	}

	// And a healthy index keeps it that way even at full sample volume.
	idx.setErr(nil)
	for i := 0; i < 8; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{float64(i), 2}, 5))
	}
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", code)
	}
}

// TestStorageHealthWindow unit-tests the sliding-window gauge directly: rates
// below the threshold never flip it, rates above do, and buckets expire.
func TestStorageHealthWindow(t *testing.T) {
	h := newStorageHealth(8*time.Second, 0.5, 4)
	var clock atomic.Int64
	clock.Store(time.Unix(1000, 0).UnixNano())
	h.now = func() time.Time { return time.Unix(0, clock.Load()) }

	// 1 failure in 10: rate 0.1, ready.
	for i := 0; i < 9; i++ {
		h.record(true)
	}
	h.record(false)
	if rate, samples, ready := h.snapshot(); !ready || samples != 10 || rate != 0.1 {
		t.Fatalf("snapshot = (%v, %d, %v), want (0.1, 10, true)", rate, samples, ready)
	}

	// Pile on failures until the rate crosses the threshold.
	for i := 0; i < 12; i++ {
		h.record(false)
	}
	if rate, _, ready := h.snapshot(); ready || rate <= 0.5 {
		t.Fatalf("after failures: rate %v ready %v, want degraded", rate, ready)
	}

	// Advance half a window: still degraded (failures in live buckets).
	clock.Add(int64(4 * time.Second))
	if _, _, ready := h.snapshot(); ready {
		t.Fatal("degraded state forgotten after half a window")
	}

	// Advance past the full window: everything expires, ready again.
	clock.Add(int64(5 * time.Second))
	if rate, samples, ready := h.snapshot(); !ready || samples != 0 || rate != 0 {
		t.Fatalf("after window = (%v, %d, %v), want clean", rate, samples, ready)
	}

	// Stale bucket reuse: a write into an expired slot resets it rather than
	// inheriting ancient counts.
	h.record(false)
	if _, samples, _ := h.snapshot(); samples != 1 {
		t.Fatalf("stale bucket not reset: samples = %d, want 1", samples)
	}
}
