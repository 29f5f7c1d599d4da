package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"blobindex"
	"blobindex/internal/wire"
)

// The router asks each hash shard for pushDownK(k) < k neighbours and tops up
// only the shards that could still hold a winner. These tests hold the
// answer to the unpartitioned index, RID for RID, where push-down is most
// likely to lose a neighbour: exact distance ties at the cap, a skewed
// top-k, and shards smaller than the pushed-down k.

// reqLog wraps a shard's handler and records the body of every search
// request it receives.
type reqLog struct {
	h    http.Handler
	mu   sync.Mutex
	reqs [][]byte
}

func (l *reqLog) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/knn" || req.URL.Path == "/v1/range" {
		body, _ := io.ReadAll(req.Body)
		l.mu.Lock()
		l.reqs = append(l.reqs, body)
		l.mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	l.h.ServeHTTP(w, req)
}

// take returns the recorded request bodies and forgets them.
func (l *reqLog) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	reqs := l.reqs
	l.reqs = nil
	return reqs
}

// takeKs returns the k of every recorded k-NN request and forgets them.
func (l *reqLog) takeKs(t *testing.T) []int {
	t.Helper()
	var ks []int
	for _, body := range l.take() {
		var kr wire.KNNRequest
		if err := json.Unmarshal(body, &kr); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, kr.K)
	}
	return ks
}

// gridCorpus places n points on the integer grid {0..side-1}^dim, so
// distances repeat and neighbours tie exactly at almost every k; queries sit
// on grid points or half a step off one.
func gridCorpus(n, dim, side int, seed int64) ([]blobindex.Point, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]blobindex.Point, n)
	for i := range pts {
		key := make([]float64, dim)
		for d := range key {
			key[d] = float64(rng.Intn(side))
		}
		pts[i] = blobindex.Point{Key: key, RID: int64(i)}
	}
	queries := make([][]float64, 50)
	for i := range queries {
		q := append([]float64(nil), pts[rng.Intn(n)].Key...)
		if i%2 == 1 {
			q[i%dim] += 0.5
		}
		queries[i] = q
	}
	return pts, queries
}

// knnThrough asks the router for q's k nearest and asserts the answer is
// bit-identical to the unpartitioned index's.
func (tc *testCluster) knnThrough(t *testing.T, what string, q []float64, k int) {
	t.Helper()
	ctx := context.Background()
	want, err := tc.oracle.Search(ctx, blobindex.SearchRequest{Query: q, K: k})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.cli.KNN(ctx, wire.KNNRequest{Query: q, K: k})
	if err != nil {
		t.Fatalf("%s: knn k=%d: %v", what, k, err)
	}
	sameBits(t, what, got.Neighbors, toWire(want.Neighbors))
}

// TestRouterTiesMatchUnpartitioned: on a corpus where distances tie exactly,
// every tier breaks ties by RID, so the router's merge of three hash shards
// is the unpartitioned index's answer.
func TestRouterTiesMatchUnpartitioned(t *testing.T) {
	pts, queries := gridCorpus(3000, 5, 4, 3)
	tc := newTestClusterOf(t, pts, 3, Config{})
	for i, q := range queries {
		tc.knnThrough(t, fmt.Sprintf("query %d", i), q, 37)
	}
}

// TestPushDownTiesAtTheCap: cases where a shard's k'-th neighbour ties the
// merged k-th distance exactly and its next neighbour still wins on RID.
// Only an inclusive top-up finds that neighbour.
func TestPushDownTiesAtTheCap(t *testing.T) {
	pts, queries := gridCorpus(3000, 5, 4, 3)
	tc := newTestClusterOf(t, pts, 3, Config{})
	ctx := context.Background()
	const maxK = 150
	type atCap struct {
		q []float64
		k int
	}
	var cases []atCap
	for _, q := range queries {
		// A shard's top k is the k-prefix of its top maxK: (Dist2, RID) is a
		// total order.
		full := make([][]wire.Neighbor, len(tc.shards))
		for i, sh := range tc.shards {
			resp, err := sh.Search(ctx, blobindex.SearchRequest{Query: q, K: maxK})
			if err != nil {
				t.Fatal(err)
			}
			full[i] = toWire(resp.Neighbors)
		}
		for k := 8; k <= maxK; k++ {
			sent := tc.router.pushDownK(&wire.KNNRequest{K: k})
			kth := Merge(full, k)[k-1]
			for _, l := range full {
				if l[sent-1].Dist2 == kth.Dist2 && !neighborLess(kth, l[sent]) {
					cases = append(cases, atCap{q, k})
					break
				}
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("no query put a winner just past a shard's tied cap; the test lost its teeth")
	}
	before := tc.router.Stats().Fanout.TopUps
	for _, c := range cases {
		tc.knnThrough(t, fmt.Sprintf("k=%d at the cap", c.k), c.q, c.k)
	}
	if tc.router.Stats().Fanout.TopUps == before {
		t.Fatal("no top-up across the tied-cap cases")
	}
	t.Logf("%d tied-cap cases", len(cases))
}

// ridsOwnedBy returns n RIDs from from upward that newTestClusterOf's hash
// partition (seed 7 over three shards) assigns to shard.
func ridsOwnedBy(shard, n int, from int64) []int64 {
	part := hashPartitioner{seed: mix64(7), n: 3}
	var rids []int64
	for rid := from; len(rids) < n; rid++ {
		if part.Owner(nil, rid) == shard {
			rids = append(rids, rid)
		}
	}
	return rids
}

// tiedShell returns n points at squared distance 0.25 from q — ±0.5 along
// each axis, several points per key — with the given RIDs.
func tiedShell(q []float64, rids []int64) []blobindex.Point {
	pts := make([]blobindex.Point, len(rids))
	for i, rid := range rids {
		key := append([]float64(nil), q...)
		key[(i/2)%len(q)] += 0.5 - float64(i%2)
		pts[i] = blobindex.Point{Key: key, RID: rid}
	}
	return pts
}

// TestPushDownForcedSkew: one query's entire top k lives on shard 0. The
// other shards hold a few neighbours tied with its last winners but with
// larger RIDs, so shard 0's pushed-down answer ends on a distance equal to
// the merged k-th, and the router must top it up — exactly it, exactly once.
func TestPushDownForcedSkew(t *testing.T) {
	const k = 30
	q := []float64{5, 5, 5, 5, 5}
	rng := rand.New(rand.NewSource(9))
	var pts []blobindex.Point
	// Background: 600 points in the unit cube, far from q, on every shard.
	for i := 0; i < 600; i++ {
		key := make([]float64, 5)
		for d := range key {
			key[d] = rng.Float64()
		}
		pts = append(pts, blobindex.Point{Key: key, RID: int64(i)})
	}
	// The top 30: ten at distinct distances, then twenty of the thirty
	// points tied at 0.25 — all owned by shard 0. Shards 1 and 2 each add
	// six losers tied at 0.25.
	near := ridsOwnedBy(0, 40, 10_000)
	for i, rid := range near[:10] {
		key := append([]float64(nil), q...)
		key[1] += 0.01 * float64(i+1)
		pts = append(pts, blobindex.Point{Key: key, RID: rid})
	}
	pts = append(pts, tiedShell(q, near[10:])...)
	pts = append(pts, tiedShell(q, ridsOwnedBy(1, 6, 50_000))...)
	pts = append(pts, tiedShell(q, ridsOwnedBy(2, 6, 50_000))...)
	tc := newTestClusterOf(t, pts, 3, Config{})
	if got := tc.router.pushDownK(&wire.KNNRequest{K: k}); got != 18 {
		t.Fatalf("pushDownK(%d) over 3 shards = %d, want 18", k, got)
	}
	before := tc.router.Stats().Fanout
	tc.knnThrough(t, "skewed top-k", q, k)
	after := tc.router.Stats().Fanout
	if d := after.TopUps - before.TopUps; d != 1 {
		t.Errorf("top_ups += %d, want 1", d)
	}
	if d := after.ShardRequests - before.ShardRequests; d != 3+1 {
		t.Errorf("shard_requests += %d, want 4", d)
	}
	if ks := tc.logs[0][0].takeKs(t); !reflect.DeepEqual(ks, []int{18, k}) {
		t.Errorf("shard 0 was asked for k = %v, want [18 %d]", ks, k)
	}
}

// TestPushDownSmallKAndSmallShards: push-down never applies where k' = k
// (k = 1, 2), and a shard that returns fewer than k' neighbours holds no
// more, so it is never topped up — even when k exceeds every shard's size.
func TestPushDownSmallKAndSmallShards(t *testing.T) {
	q := []float64{5, 5, 5, 5, 5}
	// Shard 0: 20 points tied at 0.25 from q. Shards 1 and 2: five points
	// each, two tied at 0.25 with larger RIDs and three in the unit cube.
	pts := tiedShell(q, ridsOwnedBy(0, 20, 0))
	rng := rand.New(rand.NewSource(4))
	for shard := 1; shard <= 2; shard++ {
		pts = append(pts, tiedShell(q, ridsOwnedBy(shard, 2, 50_000))...)
		for _, rid := range ridsOwnedBy(shard, 3, 0) {
			key := make([]float64, 5)
			for d := range key {
				key[d] = rng.Float64()
			}
			pts = append(pts, blobindex.Point{Key: key, RID: rid})
		}
	}
	tc := newTestClusterOf(t, pts, 3, Config{})
	for _, c := range []struct {
		k, sent int
		topUp   bool
	}{
		{1, 1, false},
		{2, 2, false},
		{8, 7, true},    // shard 0's 7th ties the 8th: topped up
		{30, 18, true},  // 28 < 30 came back, so the k-th is +Inf: shard 0 is topped up
		{40, 23, false}, // every shard returns fewer than 23
	} {
		before := tc.router.Stats().Fanout.TopUps
		tc.knnThrough(t, fmt.Sprintf("k=%d", c.k), q, c.k)
		want0 := []int{c.sent}
		if c.topUp {
			want0 = append(want0, c.k)
		}
		if ks := tc.logs[0][0].takeKs(t); !reflect.DeepEqual(ks, want0) {
			t.Errorf("k=%d: shard 0 was asked for %v, want %v", c.k, ks, want0)
		}
		for shard := 1; shard <= 2; shard++ {
			if ks := tc.logs[shard][0].takeKs(t); !reflect.DeepEqual(ks, []int{c.sent}) {
				t.Errorf("k=%d: shard %d (5 points) was asked for %v, want [%d]", c.k, shard, ks, c.sent)
			}
		}
		if got := tc.router.Stats().Fanout.TopUps - before; (got == 1) != c.topUp || got > 1 {
			t.Errorf("k=%d: %d top-ups", c.k, got)
		}
	}
}

// listShard serves list, sorted by (Dist2, RID), as a shard daemon would:
// the first k for a k-NN, all of it for a range. Every k-NN request first
// goes to intercept, which may answer it instead.
func listShard(t *testing.T, list []wire.Neighbor, intercept func(http.ResponseWriter, *http.Request, wire.KNNRequest) bool) (string, *reqLog) {
	t.Helper()
	answer := func(w http.ResponseWriter, nbs []wire.Neighbor) {
		b, err := wire.AppendSearchResponse(nil, &wire.SearchResponse{Neighbors: nbs})
		if err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/knn", func(w http.ResponseWriter, req *http.Request) {
		var kr wire.KNNRequest
		if err := json.NewDecoder(req.Body).Decode(&kr); err != nil {
			wire.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if intercept != nil && intercept(w, req, kr) {
			return
		}
		answer(w, list[:min(kr.K, len(list))])
	})
	mux.HandleFunc("POST /v1/range", func(w http.ResponseWriter, _ *http.Request) { answer(w, list) })
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready\n") })
	log := &reqLog{h: mux}
	hs := httptest.NewServer(log)
	t.Cleanup(hs.Close)
	return hs.URL, log
}

// shardLists are three shards' sorted answers of 60 neighbours each. A
// skewed set puts the nearest 60 all on shard 0, so a 30-NN tops up shard 0
// alone; otherwise the shards interleave and a 100-NN tops up none.
func shardLists(skewed bool) [][]wire.Neighbor {
	lists := make([][]wire.Neighbor, 3)
	for s := range lists {
		for i := 0; i < 60; i++ {
			d2 := float64(3*i+s) / 100
			if skewed {
				d2 = float64(s*100+i) / 100
			}
			lists[s] = append(lists[s], wire.Neighbor{RID: int64(3*i + s), Dist: math.Sqrt(d2), Dist2: d2})
		}
	}
	return lists
}

// TestPushDownScope: refine requests, space partitions and range queries go
// to the shards exactly as the client sent them; a plain k-NN over hash
// shards goes out with the pushed-down k and nothing else changed.
func TestPushDownScope(t *testing.T) {
	lists := shardLists(false)
	for _, scheme := range []string{PartitionHash, PartitionSpace} {
		var urls [][]string
		var logs []*reqLog
		for _, l := range lists {
			url, log := listShard(t, l, nil)
			urls, logs = append(urls, []string{url}), append(logs, log)
		}
		man := &Manifest{Partition: scheme}
		if scheme == PartitionSpace {
			man.Bounds = []float64{0.3, 0.6}
		}
		r, front := cannedRouter(t, Config{Manifest: man}, urls...)
		cases := []struct {
			path string
			req  any
			sent int // the k each shard must see; 0: the client's request as is
		}{
			{"/v1/knn", wire.KNNRequest{Query: []float64{1, 2, 3, 4, 5}, K: 100, IncludeKeys: true}, 48},
			{"/v1/knn", wire.KNNRequest{Query: []float64{1, 2}, K: 100, Refine: true, Multiplier: 4}, 0},
			{"/v1/range", wire.RangeRequest{Query: []float64{1, 2, 3, 4, 5}, Radius: 0.5, IncludeKeys: true}, 0},
		}
		for _, c := range cases {
			body, _ := json.Marshal(c.req)
			if status, _, got := postRaw(t, front, c.path, string(body)); status != http.StatusOK {
				t.Fatalf("%s %s: %d %s", scheme, body, status, got)
			}
			want := c.req
			if kr, ok := c.req.(wire.KNNRequest); ok && c.sent > 0 {
				if scheme == PartitionHash {
					kr.K = c.sent
				}
				want = kr
			}
			for s, log := range logs {
				reqs := log.take()
				if len(reqs) != 1 {
					t.Fatalf("%s %s: shard %d got %d requests, want 1", scheme, body, s, len(reqs))
				}
				got := reflect.New(reflect.TypeOf(c.req))
				if err := json.Unmarshal(reqs[0], got.Interface()); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Elem().Interface(), want) {
					t.Errorf("%s %s: shard %d received %s, want %+v", scheme, body, s, reqs[0], want)
				}
			}
		}
		if n := r.Stats().Fanout.TopUps; n != 0 {
			t.Errorf("%s: %d top-ups over interleaved shards", scheme, n)
		}
	}
}

// TestTopUpFailsOver: a top-up is a shard call like any other. When shard
// 0's primary fails it, the replica serves it and the answer is unchanged;
// with no replica the query fails 503 + Retry-After rather than answering
// from the pushed-down lists.
func TestTopUpFailsOver(t *testing.T) {
	const req = `{"query":[0,0,0,0,0],"k":30}`
	lists := shardLists(true)
	failTopUp := func(w http.ResponseWriter, _ *http.Request, kr wire.KNNRequest) bool {
		if kr.K < 30 {
			return false
		}
		wire.WriteError(w, http.StatusServiceUnavailable, "overloaded")
		return true
	}
	t.Run("replica", func(t *testing.T) {
		primary, _ := listShard(t, lists[0], failTopUp)
		replica, _ := listShard(t, lists[0], nil)
		s1, _ := listShard(t, lists[1], nil)
		s2, _ := listShard(t, lists[2], nil)
		r, front := cannedRouter(t, Config{HealthInterval: time.Hour}, []string{primary, replica}, []string{s1}, []string{s2})
		waitState(t, r, StateHealthy)
		checkBody(t, front, []string{replica, s1, s2}, "/v1/knn", req, 30, false)
		st := r.Stats().Fanout
		if st.TopUps != 1 || st.Failovers != 1 || st.Retries != 1 || st.PartitionFailures != 0 {
			t.Errorf("fan-out after a failed-over top-up: %+v", st)
		}
	})
	t.Run("no replica", func(t *testing.T) {
		primary, _ := listShard(t, lists[0], failTopUp)
		s1, _ := listShard(t, lists[1], nil)
		s2, _ := listShard(t, lists[2], nil)
		r, front := cannedRouter(t, Config{}, []string{primary}, []string{s1}, []string{s2})
		status, h, body := postRaw(t, front, "/v1/knn", req)
		if status != http.StatusServiceUnavailable || h.Get("Retry-After") == "" || strings.Contains(string(body), "neighbors") {
			t.Fatalf("status %d, Retry-After %q, body %s", status, h.Get("Retry-After"), body)
		}
		if st := r.Stats().Fanout; st.TopUps != 1 || st.PartitionFailures != 1 {
			t.Errorf("fan-out after a failed top-up: %+v", st)
		}
	})
}

// TestTopUpCancelIsNoVerdict: a client that leaves while its top-up is in
// flight charges nothing to the member serving it.
func TestTopUpCancelIsNoVerdict(t *testing.T) {
	lists := shardLists(true)
	arrived := make(chan struct{}, 1)
	stall := func(_ http.ResponseWriter, req *http.Request, kr wire.KNNRequest) bool {
		if kr.K < 30 {
			return false
		}
		arrived <- struct{}{}
		<-req.Context().Done()
		return true
	}
	primary, _ := listShard(t, lists[0], stall)
	s1, _ := listShard(t, lists[1], nil)
	s2, _ := listShard(t, lists[2], nil)
	r, front := cannedRouter(t, Config{HealthInterval: time.Hour}, []string{primary}, []string{s1}, []string{s2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, front+"/v1/knn", strings.NewReader(`{"query":[0,0,0,0,0],"k":30}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the top-up never reached shard 0")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("a cancelled request got an answer")
	}
	// The top-up attempt unwinds just after the client leaves; watch for a
	// moment.
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if m := r.shards[0][0]; m.consecFails.Load() != 0 {
			t.Fatalf("the cancelled top-up was charged to shard 0: %v", m.lastErr.Load())
		}
	}
	if st := r.Stats().Fanout; st.TopUps != 1 {
		t.Errorf("top_ups = %d, want 1", st.TopUps)
	}
}
