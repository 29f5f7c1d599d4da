package cluster_test

// The cluster failover end-to-end test: real blobserved and blobrouted
// binaries, real TCP, real kill -9. It partitions a corpus into 3 shard
// pagefiles (shard 0 with a replica daemon serving the same pagefile),
// boots one blobserved process per member and a blobrouted process over
// them, and asserts the router's answers stay byte-identical to the
// unpartitioned oracle through the whole lifecycle: healthy cluster,
// primary killed -9 (served by the replica, failover counted in
// /v1/stats), primary restarted (rejoins and takes traffic again).

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"blobindex"
	"blobindex/internal/apiclient"
	"blobindex/internal/cluster"
	"blobindex/internal/wire"
)

// repoRoot locates the module root from this source file's path.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// buildBinaries compiles the daemons under test into dir.
func buildBinaries(t *testing.T, dir string) (blobserved, blobrouted string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH; skipping real-binary e2e")
	}
	root := repoRoot(t)
	blobserved = filepath.Join(dir, "blobserved")
	blobrouted = filepath.Join(dir, "blobrouted")
	for bin, pkg := range map[string]string{blobserved: "./cmd/blobserved", blobrouted: "./cmd/blobrouted"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return blobserved, blobrouted
}

// freeAddrs reserves n distinct loopback ports and releases them for the
// daemons to bind. The tiny reuse race is acceptable in a test.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// daemon is one spawned process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	return d
}

// waitHealthy blocks on addr's /healthz via the apiclient backoff helper —
// exactly as slow as the daemon's startup, never a fixed sleep.
func waitHealthy(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := apiclient.New(addr, apiclient.Options{}).WaitHealthy(ctx); err != nil {
		t.Fatalf("daemon at %s never became healthy: %v", addr, err)
	}
}

func e2eCorpus(n, dim int, seed int64) ([]blobindex.Point, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]blobindex.Point, n)
	for i := range pts {
		key := make([]float64, dim)
		for d := range key {
			key[d] = math.Floor(rng.Float64()*8)/8 + rng.Float64()*0.125
		}
		pts[i] = blobindex.Point{Key: key, RID: int64(i)}
	}
	queries := make([][]float64, 8)
	for i := range queries {
		q := make([]float64, dim)
		copy(q, pts[rng.Intn(n)].Key)
		queries[i] = q
	}
	return pts, queries
}

func routerStats(t *testing.T, base string) cluster.RouterStats {
	t.Helper()
	resp, err := http.Get("http://" + base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestClusterFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("real-binary e2e skipped in -short mode")
	}
	const (
		dim     = 5
		nShards = 3
	)
	dir := t.TempDir()
	blobserved, blobrouted := buildBinaries(t, dir)

	// Partition the corpus into 3 shard pagefiles plus the oracle.
	pts, queries := e2eCorpus(3000, dim, 20260807)
	opts := blobindex.Options{Method: blobindex.XJB, Dim: dim, Seed: 1}
	oracle, err := blobindex.Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups, man, err := cluster.Partition(pts, cluster.PartitionHash, nShards, 99, dim, string(blobindex.XJB))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		idx, err := blobindex.Build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("shard-%d.idx", i)
		if err := idx.Save(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		man.Shards[i].Pagefile = name
	}

	// Addresses: one per shard, a replica for shard 0, one for the router.
	addrs := freeAddrs(t, nShards+2)
	man.Shards[0].Members = []string{addrs[0], addrs[nShards]} // primary + replica
	for i := 1; i < nShards; i++ {
		man.Shards[i].Members = []string{addrs[i]}
	}
	routerAddr := addrs[nShards+1]
	if err := cluster.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	// Boot the shard daemons: shard 0's replica serves the same pagefile as
	// its primary — byte-identical by construction.
	shardArgs := func(shard int, addr string) []string {
		return []string{"-index", filepath.Join(dir, man.Shards[shard].Pagefile), "-addr", addr}
	}
	primary := startDaemon(t, blobserved, shardArgs(0, addrs[0])...)
	for i := 1; i < nShards; i++ {
		startDaemon(t, blobserved, shardArgs(i, addrs[i])...)
	}
	startDaemon(t, blobserved, shardArgs(0, addrs[nShards])...) // replica
	for i := 0; i < nShards+1; i++ {
		waitHealthy(t, addrs[i], 10*time.Second)
	}

	// Boot the router over the manifest, with a fast health poll so the
	// rejoin leg does not dominate the test.
	startDaemon(t, blobrouted,
		"-manifest", dir, "-addr", routerAddr, "-health-interval", "100ms", "-retries", "1")
	waitHealthy(t, routerAddr, 10*time.Second)

	cli := apiclient.New(routerAddr, apiclient.Options{})
	ctx := context.Background()
	assertIdentity := func(phase string) {
		t.Helper()
		for _, q := range queries {
			for _, k := range []int{1, 25, 120} {
				want, err := oracle.Search(ctx, blobindex.SearchRequest{Query: q, K: k})
				if err != nil {
					t.Fatal(err)
				}
				got, err := cli.KNN(ctx, wire.KNNRequest{Query: q, K: k})
				if err != nil {
					t.Fatalf("%s: knn k=%d: %v", phase, k, err)
				}
				assertSameBits(t, phase, got.Neighbors, want.Neighbors)
			}
			want, err := oracle.Search(ctx, blobindex.SearchRequest{Query: q, Radius: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cli.Range(ctx, wire.RangeRequest{Query: q, Radius: 0.2})
			if err != nil {
				t.Fatalf("%s: range: %v", phase, err)
			}
			assertSameBits(t, phase+"/range", got.Neighbors, want.Neighbors)
		}
	}

	// Phase 1: healthy cluster, byte-identical to the oracle.
	assertIdentity("healthy")

	// Phase 2: kill -9 shard 0's primary. Queries must keep succeeding via
	// the replica, still byte-identical, and the router must count the
	// failover.
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.cmd.Wait()
	assertIdentity("primary killed")
	st := routerStats(t, routerAddr)
	if st.Fanout.Failovers == 0 {
		t.Fatalf("router recorded no failovers after kill -9: %+v", st.Fanout)
	}
	// The tracker settles on: primary down, replica healthy, cluster ready.
	waitFor(t, 5*time.Second, func() bool {
		st := routerStats(t, routerAddr)
		m := st.Shards[0].Members
		return m[0].State == "down" && m[1].State == "healthy" && st.Cluster.Ready
	}, "health tracker never marked the killed primary down")

	// Phase 3: bring the primary back on the same address. It must rejoin —
	// health tracker flips it healthy, and it takes traffic again.
	startDaemon(t, blobserved, shardArgs(0, addrs[0])...)
	waitFor(t, 10*time.Second, func() bool {
		return routerStats(t, routerAddr).Shards[0].Members[0].State == "healthy"
	}, "restarted primary never rejoined")
	served := routerStats(t, routerAddr).Shards[0].Members[0].Served
	assertIdentity("rejoined")
	if got := routerStats(t, routerAddr).Shards[0].Members[0].Served; got <= served {
		t.Fatalf("rejoined primary took no traffic: served %d -> %d", served, got)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// assertSameBits compares wire results against facade oracle results with
// bit equality on both distance fields.
func assertSameBits(t *testing.T, what string, got []wire.Neighbor, want []blobindex.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].RID != want[i].RID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) ||
			math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
			t.Fatalf("%s: result %d diverges: got (rid %d, dist2 %x), oracle (rid %d, dist2 %x)",
				what, i, got[i].RID, math.Float64bits(got[i].Dist2),
				want[i].RID, math.Float64bits(want[i].Dist2))
		}
	}
}
