package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blobindex"
	"blobindex/internal/apiclient"
	"blobindex/internal/server"
	"blobindex/internal/wire"
)

// testCluster is an in-process cluster: real HTTP shard daemons
// (internal/server over httptest listeners), a Router fronting them, and
// the unpartitioned oracle index for identity checks.
type testCluster struct {
	oracle  *blobindex.Index
	shards  []*blobindex.Index // shard i's index (primary and replica serve it)
	daemons [][]*httptest.Server
	logs    [][]*reqLog // the search requests each daemon received
	man     *Manifest
	router  *Router
	front   *httptest.Server // the router's own HTTP face
	cli     *apiclient.Client
}

// newTestCluster partitions clusterCorpus across nShards in-process
// daemons, giving shard 0 a replica, and mounts a Router over them.
func newTestCluster(t *testing.T, nShards int, cfg Config) *testCluster {
	t.Helper()
	pts, _ := clusterCorpus(1200, 5, 42)
	return newTestClusterOf(t, pts, nShards, cfg)
}

// newTestClusterOf is newTestCluster over the 5-d points pts, hash
// partitioned with seed 7.
func newTestClusterOf(t *testing.T, pts []blobindex.Point, nShards int, cfg Config) *testCluster {
	t.Helper()
	const dim = 5
	opts := blobindex.Options{Method: blobindex.XJB, Dim: dim, Seed: 1}
	oracle, err := blobindex.Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups, man, err := Partition(pts, PartitionHash, nShards, 7, dim, string(blobindex.XJB))
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{oracle: oracle, man: man}
	for i, g := range groups {
		idx, err := blobindex.Build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		tc.shards = append(tc.shards, idx)
		members := 1
		if i == 0 {
			members = 2 // shard 0 gets a replica serving the same index
		}
		var row []*httptest.Server
		var logs []*reqLog
		for m := 0; m < members; m++ {
			srv, err := server.New(server.Config{Index: idx, CacheEntries: -1})
			if err != nil {
				t.Fatal(err)
			}
			log := &reqLog{h: srv.Handler()}
			hs := httptest.NewServer(log)
			t.Cleanup(hs.Close)
			row = append(row, hs)
			logs = append(logs, log)
			man.Shards[i].Members = append(man.Shards[i].Members, hs.URL)
		}
		tc.daemons = append(tc.daemons, row)
		tc.logs = append(tc.logs, logs)
	}
	cfg.Manifest = man
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	tc.router, err = NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.router.Close)
	tc.front = httptest.NewServer(tc.router.Handler())
	t.Cleanup(tc.front.Close)
	tc.cli = apiclient.New(tc.front.URL, apiclient.Options{})
	return tc
}

// assertIdentity runs a mixed k-NN/range workload through the router's HTTP
// face and asserts every result is bit-identical to the oracle.
func (tc *testCluster) assertIdentity(t *testing.T, what string) {
	t.Helper()
	ctx := context.Background()
	_, queries := clusterCorpus(1200, 5, 42)
	for _, q := range queries[:6] {
		for _, k := range []int{1, 17, 100} {
			want, err := tc.oracle.Search(ctx, blobindex.SearchRequest{Query: q, K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.cli.KNN(ctx, wire.KNNRequest{Query: q, K: k})
			if err != nil {
				t.Fatalf("%s: knn k=%d: %v", what, k, err)
			}
			sameBits(t, what+"/knn", got.Neighbors, toWire(want.Neighbors))
		}
		want, err := tc.oracle.Search(ctx, blobindex.SearchRequest{Query: q, Radius: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.cli.Range(ctx, wire.RangeRequest{Query: q, Radius: 0.15})
		if err != nil {
			t.Fatalf("%s: range: %v", what, err)
		}
		sameBits(t, what+"/range", got.Neighbors, toWire(want.Neighbors))
	}
}

func TestRouterScatterGatherIdentity(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	tc.assertIdentity(t, "healthy cluster")
	st := tc.router.Stats()
	if st.Fanout.Queries == 0 || st.Fanout.ShardRequests < st.Fanout.Queries*3 {
		t.Fatalf("fan-out counters implausible: %+v", st.Fanout)
	}
	if st.Fanout.Failovers != 0 || st.Fanout.PartitionFailures != 0 {
		t.Fatalf("healthy cluster recorded failures: %+v", st.Fanout)
	}
}

func TestRouterFailoverToReplica(t *testing.T) {
	// No probe after the first: a probe landing between the kill and the
	// first query would demote the primary before any query tried it, and
	// no retry would be needed. Only the query path learns of the death.
	tc := newTestCluster(t, 3, Config{HealthInterval: time.Hour})
	tc.assertIdentity(t, "before kill")
	// Kill shard 0's primary: queries must keep succeeding, byte-identical,
	// via the replica.
	tc.daemons[0][0].Close()
	tc.assertIdentity(t, "primary down")
	st := tc.router.Stats()
	if st.Fanout.Failovers == 0 {
		t.Fatalf("no failovers recorded after killing a primary: %+v", st.Fanout)
	}
	if st.Fanout.Retries == 0 {
		t.Fatalf("no retries recorded after killing a primary: %+v", st.Fanout)
	}
	// The refused attempt marks the dead primary down and the replica's
	// answers keep it healthy; the router stays ready (the partition is
	// servable).
	if m := st.Shards[0].Members; m[0].State != "down" || m[1].State != "healthy" {
		t.Fatalf("member states after failover: %+v", m)
	}
	if !st.Cluster.Ready {
		t.Fatal("cluster not ready though every partition has a healthy member")
	}
}

func TestRouterPartitionUnavailable(t *testing.T) {
	tc := newTestCluster(t, 3, Config{Retries: 2})
	// Shard 1 has a single member; killing it makes the partition
	// unservable: queries fail 503 with Retry-After, and /readyz flips.
	tc.daemons[1][0].Close()
	_, queries := clusterCorpus(1200, 5, 42)
	_, err := tc.cli.KNN(context.Background(), wire.KNNRequest{Query: queries[0], K: 5})
	var se *apiclient.StatusError
	if !asStatusError(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 StatusError, got %v", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("503 without Retry-After: %+v", se)
	}
	if st := tc.router.Stats(); st.Fanout.PartitionFailures == 0 {
		t.Fatalf("partition failure not counted: %+v", st.Fanout)
	}
	// /readyz flips once the health tracker notices.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(tc.front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped with a dead single-member partition")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRouterWriteRouting(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	part, err := PartitionerFor(tc.man)
	if err != nil {
		t.Fatal(err)
	}
	key := []float64{0.42, -0.13, 0.07, 0.91, -0.5}
	const rid = 900001
	owner := part.Owner(key, rid)
	before := make([]int, len(tc.shards))
	for i, sh := range tc.shards {
		before[i] = sh.Len()
	}
	if _, err := tc.cli.Insert(context.Background(), wire.WriteRequest{Key: key, RID: rid}); err != nil {
		t.Fatal(err)
	}
	for i, sh := range tc.shards {
		want := before[i]
		if i == owner {
			want++
		}
		if sh.Len() != want {
			t.Fatalf("shard %d has %d points after insert, want %d (owner %d)", i, sh.Len(), want, owner)
		}
	}
	// And the delete routes back to the same shard.
	dresp, err := tc.cli.Delete(context.Background(), wire.WriteRequest{Key: key, RID: rid})
	if err != nil {
		t.Fatal(err)
	}
	if !dresp.Existed {
		t.Fatal("delete routed to a shard that did not hold the point")
	}
	if st := tc.router.Stats(); st.Fanout.Writes != 2 || st.Fanout.WriteErrors != 0 {
		t.Fatalf("write counters: %+v", st.Fanout)
	}
}

func TestRouterRejectsBadRequests(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		do   func() error
		code int
	}{
		{"wrong dim", func() error {
			_, err := tc.cli.KNN(ctx, wire.KNNRequest{Query: []float64{1, 2}, K: 3})
			return err
		}, http.StatusBadRequest},
		{"k too large", func() error {
			_, err := tc.cli.KNN(ctx, wire.KNNRequest{Query: make([]float64, 5), K: 1 << 20})
			return err
		}, http.StatusBadRequest},
		{"negative radius", func() error {
			_, err := tc.cli.Range(ctx, wire.RangeRequest{Query: make([]float64, 5), Radius: -1})
			return err
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		var se *apiclient.StatusError
		if err := c.do(); !asStatusError(err, &se) || se.Code != c.code {
			t.Fatalf("%s: want %d, got %v", c.name, c.code, err)
		}
	}
	// Zero radius short-circuits to an empty result without fan-out.
	got, err := tc.cli.Range(ctx, wire.RangeRequest{Query: make([]float64, 5), Radius: 0})
	if err != nil || len(got.Neighbors) != 0 {
		t.Fatalf("zero radius: %v, %d neighbors", err, len(got.Neighbors))
	}
}

// TestRouterAnswersCarryContentLength: every router answer, a merged search
// included, goes out with a Content-Length equal to its body, not chunked.
func TestRouterAnswersCarryContentLength(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	_, queries := clusterCorpus(1200, 5, 42)
	q, _ := json.Marshal(queries[0])
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/v1/knn", `{"query":` + string(q) + `,"k":50}`, http.StatusOK},
		{http.MethodPost, "/v1/range", `{"query":` + string(q) + `,"radius":0.15}`, http.StatusOK},
		{http.MethodPost, "/v1/range", `{"query":` + string(q) + `,"radius":0}`, http.StatusOK},
		{http.MethodPost, "/v1/insert", `{"key":[0.1,0.2,0.3,0.4,0.5],"rid":900002}`, http.StatusOK},
		{http.MethodGet, "/v1/stats", "", http.StatusOK},
		{http.MethodPost, "/v1/knn", `{"query":[1],"k":5}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(c.method, tc.front.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: status %d, Content-Length %d, transfer encoding %v, body %d bytes",
				c.method, c.path, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

func TestRouterStatsShape(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	tc.assertIdentity(t, "stats warmup")
	resp, err := http.Get(tc.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Shards != 3 || st.Cluster.Partition != PartitionHash {
		t.Fatalf("cluster info: %+v", st.Cluster)
	}
	if len(st.Shards) != 3 || len(st.Shards[0].Members) != 2 {
		t.Fatalf("shard rows: %+v", st.Shards)
	}
	if st.Endpoints["knn"].Count == 0 {
		t.Fatalf("knn endpoint histogram empty: %+v", st.Endpoints)
	}
	// The primary took the traffic; the idle replica's histogram stays empty.
	if m := st.Shards[0].Members[0]; m.Latency.Count == 0 || m.Served == 0 {
		t.Fatalf("primary latency histogram empty: %+v", m)
	}
	if st.Shards[0].Members[0].State != "healthy" {
		t.Fatalf("primary not healthy: %+v", st.Shards[0].Members[0])
	}
}

func asStatusError(err error, target **apiclient.StatusError) bool {
	return errors.As(err, target)
}
