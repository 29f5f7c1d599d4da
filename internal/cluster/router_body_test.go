package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"blobindex/internal/wire"
)

// The router's answer is the shards' encoded neighbours copied verbatim in
// (Dist2, RID) order. These tests hold its whole body, byte for byte, to
// the reference: every shard's answer decoded, merged by Merge, and
// encoded again by AppendSearchResponse with the shards' largest
// multiplier.

// postRaw sends body to url+path and returns the answer's status, headers
// and body.
func postRaw(t *testing.T, url, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, got
}

// referenceBody is the body the router must answer req with, built from
// each shard's own answer to it by decoding, Merge and re-encoding; k <= 0
// is a range search.
func referenceBody(t *testing.T, shards []string, path, req string, k int, refine bool) []byte {
	t.Helper()
	lists := make([][]wire.Neighbor, len(shards))
	want := wire.SearchResponse{Refined: refine}
	for i, url := range shards {
		status, _, body := postRaw(t, url, path, req)
		if status != http.StatusOK {
			t.Fatalf("shard %s: %s answered %d: %s", url, path, status, body)
		}
		var r wire.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		lists[i] = r.Neighbors
		if k > 0 {
			want.Multiplier = max(want.Multiplier, r.Multiplier)
		}
	}
	want.Neighbors = Merge(lists, k)
	b, err := wire.AppendSearchResponse(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkBody asserts the router's answer to req is the reference body.
func checkBody(t *testing.T, front string, shards []string, path, req string, k int, refine bool) {
	t.Helper()
	want := referenceBody(t, shards, path, req, k, refine)
	status, _, got := postRaw(t, front, path, req)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("%s %s: status %d\n got %q\nwant %q", path, req, status, got, want)
	}
}

// cannedShard answers every search with body, and /readyz with 200.
func cannedShard(t *testing.T, body []byte) string {
	t.Helper()
	mux := http.NewServeMux()
	answer := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}
	mux.HandleFunc("POST /v1/knn", answer)
	mux.HandleFunc("POST /v1/range", answer)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready\n") })
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL
}

// cannedRouter mounts a Router over shards given as member lists, primary
// first, and returns it with the URL of its HTTP face. The 5-d manifest is
// hash partitioned unless cfg.Manifest sets the scheme.
func cannedRouter(t *testing.T, cfg Config, shards ...[]string) (*Router, string) {
	t.Helper()
	if cfg.Manifest == nil {
		cfg.Manifest = &Manifest{Partition: PartitionHash}
	}
	cfg.Manifest.Method, cfg.Manifest.Dim = "xjb", 5
	for i, members := range shards {
		cfg.Manifest.Shards = append(cfg.Manifest.Shards, Shard{ID: i, Members: members})
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	return r, front.URL
}

// cannedAnswer encodes a shard's answer: n neighbours sorted by
// (Dist2, RID) with RIDs ≡ shard mod 3, so shards stay disjoint, and
// Dist2 on a coarse grid, so shards tie and RID breaks the ties; keys
// gives every other neighbour coordinates.
func cannedAnswer(t testing.TB, rng *rand.Rand, shard, n int, keys bool, r wire.SearchResponse) []byte {
	r.Neighbors = make([]wire.Neighbor, n)
	for i := range r.Neighbors {
		d2 := float64(rng.Intn(4*n)) / 8
		nb := wire.Neighbor{RID: int64(3*rng.Intn(1<<20) + shard), Dist: math.Sqrt(d2), Dist2: d2}
		if keys && i%2 == 0 {
			nb.Key = []float64{rng.Float64(), -rng.NormFloat64(), 1e-9 * rng.Float64()}
		}
		r.Neighbors[i] = nb
	}
	sort.Slice(r.Neighbors, func(i, j int) bool { return neighborLess(r.Neighbors[i], r.Neighbors[j]) })
	b, err := wire.AppendSearchResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRouterBodyByteIdentity covers real shard daemons (k-NN at every k,
// past the corpus size included, with and without keys, range with and
// without results) and canned shards (answers flagged cached or coalesced,
// refined answers with differing multipliers).
func TestRouterBodyByteIdentity(t *testing.T) {
	t.Run("real shards", func(t *testing.T) {
		tc := newTestCluster(t, 3, Config{})
		shards := make([]string, len(tc.daemons))
		for i, row := range tc.daemons {
			shards[i] = row[0].URL
		}
		_, queries := clusterCorpus(1200, 5, 42)
		for _, q := range queries[:3] {
			qj, _ := json.Marshal(q)
			for _, k := range []int{1, 17, 100, 2000} {
				for _, keys := range []bool{false, true} {
					req := fmt.Sprintf(`{"query":%s,"k":%d,"include_keys":%v}`, qj, k, keys)
					checkBody(t, tc.front.URL, shards, "/v1/knn", req, k, false)
				}
			}
			for _, keys := range []bool{false, true} {
				req := fmt.Sprintf(`{"query":%s,"radius":0.15,"include_keys":%v}`, qj, keys)
				checkBody(t, tc.front.URL, shards, "/v1/range", req, 0, false)
			}
		}
		checkBody(t, tc.front.URL, shards, "/v1/range", `{"query":[9,9,9,9,9],"radius":0.01}`, 0, false)
	})

	t.Run("canned shards", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		answers := []wire.SearchResponse{
			{Refined: true, Multiplier: 6, Cached: true},
			{Refined: true, Multiplier: 12, Coalesced: true},
			{Refined: true, Multiplier: 9},
		}
		shards := make([]string, len(answers))
		members := make([][]string, len(answers))
		for i, a := range answers {
			shards[i] = cannedShard(t, cannedAnswer(t, rng, i, 40, true, a))
			members[i] = []string{shards[i]}
		}
		_, front := cannedRouter(t, Config{}, members...)
		for _, k := range []int{1, 17, 100, 200} {
			req := fmt.Sprintf(`{"query":[0.1,0.2],"k":%d,"refine":true}`, k)
			checkBody(t, front, shards, "/v1/knn", req, k, true)
		}
		checkBody(t, front, shards, "/v1/range", `{"query":[0,0,0,0,0],"radius":1}`, 0, false)
	})
}

// TestRouterMalformedAnswerFailsOver: a 200 whose body the scanner refuses
// is a failed attempt. With a replica the query succeeds byte-identical,
// counts a failover, and charges the primary; without one the router
// answers 503 + Retry-After rather than a 200 built from unchecked bytes.
func TestRouterMalformedAnswerFailsOver(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	good0 := cannedAnswer(t, rng, 0, 30, false, wire.SearchResponse{})
	good1 := cannedAnswer(t, rng, 1, 30, false, wire.SearchResponse{})
	// A non-canonical float: a trailing zero on the first neighbour's dist.
	// encoding/json decodes it to the same number, which encodes without.
	end := bytes.Index(good0, []byte(`,"dist2":`))
	bad := append(append(slices.Clip(good0[:end]), '0'), good0[end:]...)
	var decoded wire.SearchResponse
	if !bytes.Contains(good0[:end], []byte(".")) || json.Unmarshal(bad, &decoded) != nil {
		t.Fatalf("%q is not a decodable non-canonical answer", bad[:end+1])
	}
	const req = `{"query":[0,0,0,0,0],"k":20}`

	t.Run("healthy replica", func(t *testing.T) {
		replica, other := cannedShard(t, good0), cannedShard(t, good1)
		r, front := cannedRouter(t, Config{HealthInterval: time.Hour}, []string{cannedShard(t, bad), replica}, []string{other})
		waitState(t, r, StateHealthy)
		checkBody(t, front, []string{replica, other}, "/v1/knn", req, 20, false)
		st := r.Stats()
		if st.Fanout.Failovers != 1 {
			t.Errorf("failovers = %d, want 1", st.Fanout.Failovers)
		}
		if m := st.Shards[0].Members[0]; m.ConsecFails != 1 || m.State != "degraded" || !strings.Contains(m.LastError, "malformed") {
			t.Errorf("primary after a malformed answer: %+v", m)
		}
	})

	t.Run("no replica", func(t *testing.T) {
		_, front := cannedRouter(t, Config{}, []string{cannedShard(t, bad)}, []string{cannedShard(t, good1)})
		status, h, body := postRaw(t, front, "/v1/knn", req)
		if status != http.StatusServiceUnavailable || h.Get("Retry-After") == "" || !strings.Contains(string(body), "malformed") {
			t.Fatalf("status %d, Retry-After %q, body %s", status, h.Get("Retry-After"), body)
		}
	})
}

// waitState waits until the health tracker has put every member in state.
func waitState(t *testing.T, r *Router, state MemberState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, ms := range r.shards {
			for _, m := range ms {
				settled = settled && m.getState() == state
			}
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("members never reached %v", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScatterFailsFastPastStalledShard: a shard's definitive failure is the
// query's answer at once, with its own status, even while a sibling shard
// stalls toward its 2 s timeout.
func TestScatterFailsFastPastStalledShard(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			return
		}
		wire.WriteError(w, http.StatusInternalServerError, "search: corrupt page 17")
	}))
	t.Cleanup(failing.Close)
	stalled, _ := stalledListener(t)
	// An hour between probes: the stalled member's only probe stays in
	// flight, so nothing but the query can charge it.
	r, front := cannedRouter(t, Config{HealthInterval: time.Hour}, []string{failing.URL}, []string{stalled})
	start := time.Now()
	status, _, body := postRaw(t, front, "/v1/knn", `{"query":[0,0,0,0,0],"k":5}`)
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("answer took %v", d)
	}
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "corrupt page") {
		t.Errorf("status %d, body %s; want the shard's 500", status, body)
	}
	// The cancelled call is no verdict on the stalled member. Its attempt
	// unwinds just after the answer, so watch for a moment.
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if m := r.shards[1][0]; m.consecFails.Load() != 0 {
			t.Fatalf("the cancelled call was charged to the stalled member: %v", m.lastErr.Load())
		}
	}
}

// BenchmarkRouterMerge is the router's per-query merge work for three shard
// answers of 200 neighbours (a full-k scatter at k = 200) and of 87 (the
// pushed-down k for three hash shards): scanning the bodies and copying the
// winning spans, against decoding them, Merge, and encoding the result.
func BenchmarkRouterMerge(b *testing.B) {
	for _, n := range []int{200, 87} {
		rng := rand.New(rand.NewSource(1))
		bodies := make([][]byte, 3)
		for i := range bodies {
			r := wire.SearchResponse{Neighbors: make([]wire.Neighbor, n)}
			for j := range r.Neighbors {
				d2 := rng.Float64() * 0.3
				r.Neighbors[j] = wire.Neighbor{RID: int64(rng.Intn(210000)), Dist: math.Sqrt(d2), Dist2: d2}
			}
			sort.Slice(r.Neighbors, func(x, y int) bool { return neighborLess(r.Neighbors[x], r.Neighbors[y]) })
			var err error
			if bodies[i], err = wire.AppendSearchResponse(nil, &r); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("3x%d/scan", n), func(b *testing.B) {
			lists := make([][]wire.Span, len(bodies))
			var out []byte
			b.ReportAllocs()
			for b.Loop() {
				for i, body := range bodies {
					sc, err := wire.ScanSearchResponse(body, lists[i])
					if err != nil {
						b.Fatal(err)
					}
					lists[i] = sc.Neighbors
				}
				out = mergeSpans(out[:0], bodies, lists, 200)
			}
		})
		b.Run(fmt.Sprintf("3x%d/decode", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				lists := make([][]wire.Neighbor, len(bodies))
				for i, body := range bodies {
					var r wire.SearchResponse
					if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
						b.Fatal(err)
					}
					lists[i] = r.Neighbors
				}
				if _, err := wire.AppendSearchResponse(nil, &wire.SearchResponse{Neighbors: Merge(lists, 200)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
