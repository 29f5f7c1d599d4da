package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobindex"
	"blobindex/internal/wire"
)

// stubIndex is a controllable Queryer: it counts index searches, can block
// them until released, and returns a fixed result set — which is exactly
// what the admission and coalescing tests need to create deterministic
// in-flight states.
type stubIndex struct {
	dim      int
	res      []blobindex.Neighbor
	block    chan struct{} // non-nil: searches block until closed (or ctx dies)
	searches atomic.Int64
	inserts  atomic.Int64
	deletes  atomic.Int64
}

func (s *stubIndex) Search(ctx context.Context, req blobindex.SearchRequest) (blobindex.SearchResponse, error) {
	s.searches.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return blobindex.SearchResponse{}, ctx.Err()
		}
	}
	return blobindex.SearchResponse{
		Neighbors: s.res,
		Filter:    blobindex.StageStats{Candidates: len(s.res)},
	}, nil
}

func (s *stubIndex) Insert(p blobindex.Point) error { s.inserts.Add(1); return nil }
func (s *stubIndex) Delete(key []float64, rid int64) (bool, error) {
	s.deletes.Add(1)
	return true, nil
}
func (s *stubIndex) Tighten() error { return nil }
func (s *stubIndex) Options() blobindex.Options {
	return blobindex.Options{Method: blobindex.RTree, Dim: s.dim}
}
func (s *stubIndex) Stats() blobindex.Stats {
	return blobindex.Stats{Method: blobindex.RTree, Len: len(s.res)}
}
func (s *stubIndex) BufferStats() (blobindex.BufferStats, bool) {
	return blobindex.BufferStats{}, false
}
func (s *stubIndex) RefineDim() (int, bool) { return 0, false }
func (s *stubIndex) RefineStats() (blobindex.BufferStats, bool) {
	return blobindex.BufferStats{}, false
}

func newStub(dim int) *stubIndex {
	return &stubIndex{
		dim: dim,
		res: []blobindex.Neighbor{{RID: 7, Key: []float64{1, 2}, Dist: 0.5}},
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func knnBody(q []float64, k int) wire.KNNRequest { return wire.KNNRequest{Query: q, K: k} }

// buildIndex builds a small real index for end-to-end tests.
func buildIndex(t *testing.T, n, dim int) *blobindex.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	pts := make([]blobindex.Point, n)
	for i := range pts {
		k := make([]float64, dim)
		for d := range k {
			k[d] = rng.Float64() * 100
		}
		pts[i] = blobindex.Point{Key: k, RID: int64(i)}
	}
	idx, err := blobindex.Build(pts, blobindex.Options{Method: blobindex.XJB, Dim: dim, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestServeKNNEndToEnd(t *testing.T) {
	idx := buildIndex(t, 1500, 3)
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := []float64{50, 50, 50}
	want := idx.SearchKNN(q, 10)

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", wire.KNNRequest{Query: q, K: 10, IncludeKeys: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr wire.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached || sr.Coalesced {
		t.Errorf("first query reported cached=%v coalesced=%v", sr.Cached, sr.Coalesced)
	}
	if len(sr.Neighbors) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(sr.Neighbors), len(want))
	}
	for i, n := range sr.Neighbors {
		if n.RID != want[i].RID {
			t.Errorf("neighbor %d RID = %d, want %d", i, n.RID, want[i].RID)
		}
		if len(n.Key) != 3 {
			t.Errorf("neighbor %d missing key (include_keys set)", i)
		}
	}

	// The identical query again: a cache hit, same answer.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", wire.KNNRequest{Query: q, K: 10, IncludeKeys: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Error("repeat of an identical query was not served from cache")
	}
	// Sub-quantum jitter on a coordinate must land on the same cache line.
	jq := []float64{50 + 1e-9, 50, 50}
	_, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn", wire.KNNRequest{Query: jq, K: 10, IncludeKeys: true})
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Error("sub-quantum jittered query missed the cache")
	}

	// Range endpoint round-trips too.
	wantRange := idx.SearchRange(q, 15)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/range", wire.RangeRequest{Query: q, Radius: 15})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Neighbors) != len(wantRange) {
		t.Errorf("range got %d neighbors, want %d", len(sr.Neighbors), len(wantRange))
	}

	// healthz and stats.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v, %v", hr, err)
	}
	hr.Body.Close()
	sresp, sbody := getStats(t, ts)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", sresp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 2 {
		t.Errorf("stats cache hits = %d, want >= 2", st.Cache.Hits)
	}
	if st.Index.Method != "xjb" || st.Index.Len != 1500 {
		t.Errorf("stats index = %+v", st.Index)
	}
	if st.Endpoints["knn"].Count < 3 {
		t.Errorf("knn endpoint count = %d, want >= 3", st.Endpoints["knn"].Count)
	}

	// /debug/vars is valid JSON and carries the blobserved var.
	dv, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatalf("debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["blobserved"]; !ok {
		t.Error("debug/vars missing blobserved")
	}
}

func getStats(t *testing.T, ts *httptest.Server) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestNonFiniteDistanceAnswers500 posts a finite query whose squared
// distance overflows to +Inf, which JSON cannot carry: the answer is a 500
// with a JSON error body, every time — an unencodable result is never
// cached — and the readiness gauge counts each as the successful search it
// was, not as a storage failure.
func TestNonFiniteDistanceAnswers500(t *testing.T) {
	srv, err := New(Config{Index: buildIndex(t, 200, 5)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{1e200, 0, 0, 0, 0}, 5))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status = %d, want 500; body %s", i, resp.StatusCode, body)
		}
		var e wire.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("attempt %d: body %q is not a JSON error (err %v)", i, body, err)
		}
	}
	st := srv.Stats()
	if st.Cache.Entries != 0 || st.Cache.Hits != 0 {
		t.Errorf("cache = %+v, want the unencodable result never stored", st.Cache)
	}
	if st.Storage.WindowSamples != 2 || st.Storage.WindowErrorRate != 0 ||
		st.Storage.TransientErrors+st.Storage.CorruptErrors != 0 {
		t.Errorf("storage = %+v, want two successful searches", st.Storage)
	}
}

// TestIncludeKeysIsPartOfCacheIdentity: a cached body holds its keys or
// not, so a request with include_keys is never answered from a keys-less
// entry, nor the reverse, on either search endpoint.
func TestIncludeKeysIsPartOfCacheIdentity(t *testing.T) {
	const dim = 3
	srv, err := New(Config{Index: buildIndex(t, 300, dim)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := []float64{40, 60, 50}
	for _, ep := range []struct {
		path string
		body func(keys bool) any
	}{
		{"/v1/knn", func(keys bool) any { return wire.KNNRequest{Query: q, K: 7, IncludeKeys: keys} }},
		{"/v1/range", func(keys bool) any { return wire.RangeRequest{Query: q, Radius: 20, IncludeKeys: keys} }},
	} {
		for i, step := range []struct{ keys, cached bool }{
			{false, false}, {true, false}, {true, true}, {false, true},
		} {
			resp, body := postJSON(t, ts.Client(), ts.URL+ep.path, ep.body(step.keys))
			var sr wire.SearchResponse
			if err := json.Unmarshal(body, &sr); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s step %d: status %d, body %s (%v)", ep.path, i, resp.StatusCode, body, err)
			}
			if len(sr.Neighbors) == 0 {
				t.Fatalf("%s step %d: no neighbours, the test proves nothing", ep.path, i)
			}
			if sr.Cached != step.cached {
				t.Errorf("%s step %d (include_keys %v): cached = %v, want %v", ep.path, i, step.keys, sr.Cached, step.cached)
			}
			for _, n := range sr.Neighbors {
				if (len(n.Key) == dim) != step.keys {
					t.Errorf("%s step %d (include_keys %v): neighbour %d has key %v", ep.path, i, step.keys, n.RID, n.Key)
					break
				}
			}
		}
	}
}

// discardWriter is a reusable ResponseWriter that keeps nothing, so an
// allocation count over Handler() sees only the handler's own.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// TestCacheHitAllocsIndependentOfK: a cache hit copies the stored bytes and
// does no per-neighbour work, so it allocates as often at k = 200 as at
// k = 10.
func TestCacheHitAllocsIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	hitAllocs := func(k int) float64 {
		stub := newStub(2)
		stub.res = make([]blobindex.Neighbor, k)
		for i := range stub.res {
			stub.res[i] = blobindex.Neighbor{RID: int64(i), Dist: float64(i) / 3, Dist2: float64(i*i) / 9}
		}
		srv, err := New(Config{Index: stub})
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(fmt.Sprintf(`{"query":[1,2],"k":%d}`, k))
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/knn", bytes.NewReader(body)))
		}
		serve() // the miss that fills the cache
		allocs := testing.AllocsPerRun(200, serve)
		if w.status != http.StatusOK || stub.searches.Load() != 1 {
			t.Fatalf("k=%d: status %d after %d searches, want every timed request a 200 hit", k, w.status, stub.searches.Load())
		}
		return allocs
	}
	small, large := hitAllocs(10), hitAllocs(200)
	t.Logf("allocations per cache hit: %.0f at k=10, %.0f at k=200", small, large)
	if small != large {
		t.Errorf("a hit allocates %.0f times at k=10 but %.0f at k=200", small, large)
	}
}

func TestBadRequests(t *testing.T) {
	srv, err := New(Config{Index: newStub(2), MaxK: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		url  string
		body string
	}{
		{"wrong dim", "/v1/knn", `{"query":[1,2,3],"k":5}`},
		{"k too large", "/v1/knn", `{"query":[1,2],"k":101}`},
		{"k zero", "/v1/knn", `{"query":[1,2],"k":0}`},
		{"not json", "/v1/knn", `nope`},
		{"unknown field", "/v1/knn", `{"query":[1,2],"k":5,"bogus":1}`},
		{"nan coordinate", "/v1/knn", `{"query":[1,"x"],"k":5}`},
		{"negative radius", "/v1/range", `{"query":[1,2],"radius":-1}`},
		{"insert wrong dim", "/v1/insert", `{"key":[1],"rid":5}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.url, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Wrong method on a POST endpoint.
	resp, err := ts.Client().Get(ts.URL + "/v1/knn")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/knn status = %d, want 405", resp.StatusCode)
	}
}

// TestAdmissionRejection drives the gate into each rejection mode: with one
// execution slot occupied and a one-deep queue, the first extra request
// waits out the queue timeout (503) and a second extra is turned away at
// the door (429).
func TestAdmissionRejection(t *testing.T) {
	stub := newStub(2)
	stub.block = make(chan struct{})
	srv, err := New(Config{
		Index:        stub,
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 150 * time.Millisecond,
		CacheEntries: -1, // no cache: every request must reach admission's slot
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct queries so coalescing cannot merge them.
	launch := func(qx float64) chan int {
		ch := make(chan int, 1)
		go func() {
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{qx, 0}, 5))
			ch <- resp.StatusCode
		}()
		return ch
	}

	// Occupy the single execution slot.
	first := launch(1)
	waitFor(t, func() bool { return srv.adm.inFlight.Load() == 1 }, "first request in flight")

	// Fill the one queue slot.
	second := launch(2)
	waitFor(t, func() bool { return srv.adm.queued.Load() == 1 }, "second request queued")

	// Queue full: immediate 429.
	third := launch(3)
	if got := <-third; got != http.StatusTooManyRequests {
		t.Errorf("third request status = %d, want 429", got)
	}

	// The queued request times out: 503.
	if got := <-second; got != http.StatusServiceUnavailable {
		t.Errorf("second request status = %d, want 503", got)
	}

	st := srv.Stats()
	if st.Admission.RejectedFull != 1 || st.Admission.RejectedTimeout != 1 {
		t.Errorf("admission stats = %+v, want 1 full + 1 timeout rejection", st.Admission)
	}

	close(stub.block)
	if got := <-first; got != http.StatusOK {
		t.Errorf("first request status = %d, want 200", got)
	}
}

// TestCoalescing fires N identical concurrent queries at a blocked index
// and asserts exactly one index search ran — the others shared its flight —
// and that the leader's, the followers' and a later cache hit's bodies
// differ only in their cached/coalesced flags.
func TestCoalescing(t *testing.T) {
	const n = 8
	stub := newStub(2)
	stub.block = make(chan struct{})
	srv, err := New(Config{Index: stub, MaxInFlight: n, MaxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{9, 9}, 5))
			results <- result{resp.StatusCode, body}
		}()
	}
	// One leader is inside the (blocked) search; the other n-1 must all be
	// registered as followers before the search is allowed to finish.
	waitFor(t, func() bool { return srv.flights.followers.Load() == n-1 }, "followers joined")
	if got := stub.searches.Load(); got != 1 {
		t.Fatalf("index searches before release = %d, want 1", got)
	}
	close(stub.block)

	const (
		leaderTail   = `,"cached":false,"coalesced":false}` + "\n"
		followerTail = `,"cached":false,"coalesced":true}` + "\n"
		hitTail      = `,"cached":true,"coalesced":false}` + "\n"
	)
	var head string
	sameHead := func(body []byte, tail string) bool {
		h, ok := strings.CutSuffix(string(body), tail)
		if ok && head == "" {
			head = h
		}
		return ok && h == head
	}
	var coalesced int
	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("status = %d, want 200", r.status)
		}
		switch {
		case sameHead(r.body, followerTail):
			coalesced++
		case !sameHead(r.body, leaderTail):
			t.Errorf("body %q is neither the leader's nor a follower's", r.body)
		}
	}
	if got := stub.searches.Load(); got != 1 {
		t.Errorf("index searches = %d, want 1 (coalescing failed)", got)
	}
	if coalesced != n-1 {
		t.Errorf("coalesced responses = %d, want %d", coalesced, n-1)
	}
	st := srv.Stats()
	if st.Coalesce.Leaders != 1 || st.Coalesce.Followers != n-1 {
		t.Errorf("coalesce stats = %+v", st.Coalesce)
	}
	if _, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{9, 9}, 5)); !sameHead(body, hitTail) {
		t.Errorf("cache hit body %q, want %q + %q", body, head, hitTail)
	}
}

// TestCacheInvalidationOnWrite asserts a write through the server purges
// the cached result: query, repeat (cached), Insert, repeat (must hit the
// index again), and the same around Delete.
func TestCacheInvalidationOnWrite(t *testing.T) {
	stub := newStub(2)
	srv, err := New(Config{Index: stub})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func() wire.SearchResponse {
		_, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody([]float64{3, 4}, 5))
		var sr wire.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	query()
	if got := stub.searches.Load(); got != 1 {
		t.Fatalf("searches after first query = %d", got)
	}
	if sr := query(); !sr.Cached {
		t.Fatal("repeat query not cached")
	}
	if got := stub.searches.Load(); got != 1 {
		t.Fatalf("cached repeat ran a search (count %d)", got)
	}

	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/insert", wire.WriteRequest{Key: []float64{1, 1}, RID: 99}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d, body %s", resp.StatusCode, body)
	}
	if sr := query(); sr.Cached {
		t.Error("query after Insert served stale cache entry")
	}
	if got := stub.searches.Load(); got != 2 {
		t.Errorf("searches after insert+query = %d, want 2", got)
	}

	if sr := query(); !sr.Cached {
		t.Error("repeat after re-fill not cached")
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delete", wire.WriteRequest{Key: []float64{1, 1}, RID: 99}); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if sr := query(); sr.Cached {
		t.Error("query after Delete served stale cache entry")
	}
	if got := stub.searches.Load(); got != 3 {
		t.Errorf("searches after delete+query = %d, want 3", got)
	}
	st := srv.Stats()
	if st.Cache.Invalidations < 2 {
		t.Errorf("cache invalidations = %d, want >= 2", st.Cache.Invalidations)
	}
}

// TestGracefulShutdownDrains starts a real http.Server, parks a request
// inside a blocked index search, begins Shutdown, and asserts the in-flight
// request still completes successfully — the drain the daemon relies on.
func TestGracefulShutdownDrains(t *testing.T) {
	stub := newStub(2)
	stub.block = make(chan struct{})
	srv, err := New(Config{Index: stub})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)

	url := fmt.Sprintf("http://%s/v1/knn", ln.Addr())
	status := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, http.DefaultClient, url, knnBody([]float64{1, 2}, 5))
		status <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.adm.inFlight.Load() == 1 }, "request in flight")

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownDone <- hs.Shutdown(ctx) }()

	// Shutdown must wait for the in-flight request, not kill it.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(stub.block)
	if got := <-status; got != http.StatusOK {
		t.Errorf("drained request status = %d, want 200", got)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestConcurrentMixedLoad hammers a real index through the full stack —
// many clients, repeated and distinct queries, interleaved writes — mostly
// for the race detector's benefit.
func TestConcurrentMixedLoad(t *testing.T) {
	idx := buildIndex(t, 1200, 2)
	srv, err := New(Config{Index: idx, MaxInFlight: 8, MaxQueue: 64, CacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := []float64{float64((c*7 + i) % 50), float64(i % 20)}
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/knn", knnBody(q, 8))
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests &&
					resp.StatusCode != http.StatusServiceUnavailable {
					failures.Add(1)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			postJSON(t, ts.Client(), ts.URL+"/v1/insert",
				wire.WriteRequest{Key: []float64{float64(i), 1}, RID: int64(100000 + i)})
		}
	}()
	wg.Wait()
	if failures.Load() > 0 {
		t.Errorf("%d requests failed with unexpected statuses", failures.Load())
	}
	if err := idx.Check(); err != nil {
		t.Errorf("index integrity after mixed load: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
