package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"blobindex"
	"blobindex/internal/blobworld"
	"blobindex/internal/cluster"
)

// runCfg is one workload run's settings.
type runCfg struct {
	h       *harness
	sc      scale
	seed    int64
	seconds float64
	ladder  bool // run the traced in-process layer ladder after the timed phases
	reps    int  // set-up repetitions; setup_s is their median
}

// ops scales a request count written for refSeconds to this run.
func (c runCfg) ops(n int) int {
	if c.sc.FixedOps > 0 {
		return min(n, c.sc.FixedOps)
	}
	return max(1, int(math.Round(float64(n)*c.seconds/refSeconds)))
}

// deadline is the hard stop of the timed phases: counts are sized to finish
// in about -seconds (refine, whose closed phase may not shrink below 1000
// requests, in about twice that), and a system that has become several
// times slower is cut off (and the cut counted as failures) rather than
// left to run on.
func (c runCfg) deadline() time.Time {
	return time.Now().Add(time.Duration(4*c.seconds*float64(time.Second)) + 20*time.Second)
}

// corpusData is the seeded input every workload starts from: the synthetic
// Blobworld corpus, the SVD reduction and the reduced keys. RIDs are blob
// numbers.
type corpusData struct {
	corpus  *blobindex.Corpus
	reducer *blobindex.Reducer
	keys    [][]float64
	points  []blobindex.Point
}

// fitSample caps the features the reduction is fitted on. The SVD fit is
// the one super-linear step of set-up; a strided sample of this size
// reproduces the full fit's subspace to well within what a 5-d index
// notices, and keeps paper-scale set-up inside the run budget.
const fitSample = 24000

func makeCorpus(images int, seed int64) (*corpusData, error) {
	c, err := blobindex.GenerateCorpus(blobindex.CorpusConfig{Images: images, Seed: seed})
	if err != nil {
		return nil, err
	}
	feats := c.Features()
	sample := feats
	if len(feats) > fitSample {
		stride := (len(feats) + fitSample - 1) / fitSample
		sample = make([][]float64, 0, fitSample)
		for i := 0; i < len(feats); i += stride {
			sample = append(sample, feats[i])
		}
	}
	r, err := blobindex.FitReducer(sample, indexDim)
	if err != nil {
		return nil, err
	}
	cd := &corpusData{corpus: c, reducer: r, keys: r.ReduceAll(feats)}
	cd.points = make([]blobindex.Point, len(cd.keys))
	for i, key := range cd.keys {
		cd.points[i] = blobindex.Point{Key: key, RID: int64(i)}
	}
	return cd, nil
}

func indexOptions(seed int64) blobindex.Options {
	return blobindex.Options{Method: blobindex.XJB, Dim: indexDim, Seed: seed}
}

// site is one booted system under test and what the benchmark knows about
// it from having generated it.
type site struct {
	target  *daemon   // where the load goes
	daemons []*daemon // everything booted, target included
	data    *corpusData
	oracle  *blobindex.Index // in-process index over the same points, never partitioned
	dir     string           // this site's files
	served  []string         // files the daemons serve, for disk_bytes_per_blob
	idxPath string           // the unpartitioned saved index (read workloads), for the ladder
	side    string           // the refine sidecar, when there is one
	shards  []string         // per-shard index files (cluster)
	man     *cluster.Manifest
	pool    int // the target's index buffer pool, pages
	cache   int // the target's result-cache entries
}

func (s *site) close(h *harness) {
	h.stopAll()
	if s.oracle != nil {
		s.oracle.Close()
	}
	os.RemoveAll(s.dir)
}

// buildAndSave bulk-loads points and saves the index file.
func buildAndSave(points []blobindex.Point, seed int64, path string) (*blobindex.Index, error) {
	ix, err := blobindex.Build(points, indexOptions(seed))
	if err != nil {
		return nil, err
	}
	if err := ix.Save(path); err != nil {
		return nil, err
	}
	return ix, nil
}

// setupServed brings up one blobserved over a saved index: serve-hot,
// serve-cold and (with a sidecar) refine.
func setupServed(cfg runCfg, images, pool int, withSide bool) (*site, error) {
	dir, err := os.MkdirTemp(cfg.h.workDir, "site-")
	if err != nil {
		return nil, err
	}
	s := &site{dir: dir, pool: pool, cache: 4096}
	if s.data, err = makeCorpus(images, cfg.seed); err != nil {
		return nil, err
	}
	s.idxPath = filepath.Join(dir, "blobs.idx")
	if s.oracle, err = buildAndSave(s.data.points, cfg.seed, s.idxPath); err != nil {
		return nil, err
	}
	s.served = []string{s.idxPath}
	args := []string{"-index", s.idxPath, "-pool", fmt.Sprint(pool), "-cache", fmt.Sprint(s.cache)}
	if withSide {
		s.side = filepath.Join(dir, "blobs.side")
		rids := make([]int64, len(s.data.points))
		for i := range rids {
			rids[i] = int64(i)
		}
		if err := blobindex.SaveSidecar(s.side, 0, s.data.reducer, rids, s.data.corpus.Features()); err != nil {
			return nil, err
		}
		// The oracle re-ranks from a sidecar pool that holds every page: it
		// has to be right, not representative.
		if err := s.oracle.AttachRefine(s.side, 1<<20); err != nil {
			return nil, err
		}
		s.served = append(s.served, s.side)
		args = append(args, "-side", s.side, "-side-pool", fmt.Sprint(cfg.sc.SidePool))
	}
	if s.target, err = cfg.h.start("server", "blobserved", args...); err != nil {
		return nil, err
	}
	s.daemons = []*daemon{s.target}
	return s, nil
}

// setupCluster brings up three hash-partitioned shards behind blobrouted.
func setupCluster(cfg runCfg) (*site, error) {
	dir, err := os.MkdirTemp(cfg.h.workDir, "site-")
	if err != nil {
		return nil, err
	}
	s := &site{dir: dir, pool: blobindex.DefaultPoolPages, cache: 4096}
	if s.data, err = makeCorpus(cfg.sc.HotImages, cfg.seed); err != nil {
		return nil, err
	}
	s.idxPath = filepath.Join(dir, "whole.idx")
	if s.oracle, err = buildAndSave(s.data.points, cfg.seed, s.idxPath); err != nil {
		return nil, err
	}
	groups, man, err := cluster.Partition(s.data.points, cluster.PartitionHash, 3, cfg.seed, indexDim, string(blobindex.XJB))
	if err != nil {
		return nil, err
	}
	for i, g := range groups {
		name := fmt.Sprintf("shard-%d.idx", i)
		path := filepath.Join(dir, name)
		if _, err := buildAndSave(g, cfg.seed, path); err != nil {
			return nil, err
		}
		d, err := cfg.h.start("shards", "blobserved", "-index", path)
		if err != nil {
			return nil, err
		}
		man.Shards[i].Pagefile = name
		man.Shards[i].Members = []string{d.addr}
		s.daemons = append(s.daemons, d)
		s.served = append(s.served, path)
		s.shards = append(s.shards, path)
	}
	if err := cluster.WriteManifest(dir, man); err != nil {
		return nil, err
	}
	s.man = man
	if s.target, err = cfg.h.start("router", "blobrouted", "-manifest", dir); err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, s.target)
	return s, nil
}

// setupOnline brings up one blobserved over an online index preloaded
// through the durable write path and compacted into one segment.
func setupOnline(cfg runCfg) (*site, error) {
	dir, err := os.MkdirTemp(cfg.h.workDir, "site-")
	if err != nil {
		return nil, err
	}
	s := &site{dir: dir, pool: blobindex.DefaultPoolPages, cache: 4096}
	if s.data, err = makeCorpus(cfg.sc.IngestImages, cfg.seed); err != nil {
		return nil, err
	}
	if s.oracle, err = blobindex.Build(s.data.points, indexOptions(cfg.seed)); err != nil {
		return nil, err
	}
	online := filepath.Join(dir, "online")
	ix, err := blobindex.CreateOnline(online, indexOptions(cfg.seed), blobindex.OnlineOptions{})
	if err != nil {
		return nil, err
	}
	for _, p := range s.data.points {
		if err := ix.Insert(p); err != nil {
			ix.Close()
			return nil, err
		}
	}
	if err := ix.CompactAll(); err != nil {
		ix.Close()
		return nil, err
	}
	if err := ix.Close(); err != nil {
		return nil, err
	}
	s.served = []string{online}
	s.target, err = cfg.h.start("server", "blobserved", "-online", online,
		"-seal-threshold", fmt.Sprint(cfg.sc.SealThreshold))
	if err != nil {
		return nil, err
	}
	s.daemons = []*daemon{s.target}
	return s, nil
}

// timedSetup runs setup (which must include the warm-up) cfg.reps times,
// tearing each attempt down but the last, and returns the last site with
// the median time, as measured and at the CPU share the guest was granted
// (see steal.go). Repeating inside one run is what makes setup_s steady
// enough to gate on.
func timedSetup(cfg runCfg, setup func() (*site, error)) (s *site, raw, adjusted float64, err error) {
	var raws, adjs []float64
	for rep := 0; ; rep++ {
		cpu0, start := readCPUTimes(), time.Now()
		s, err := setup()
		if err != nil {
			cfg.h.stopAll()
			return nil, 0, 0, err
		}
		took := time.Since(start).Seconds()
		raws = append(raws, took)
		adjs = append(adjs, took*readCPUTimes().sub(cpu0).granted())
		if rep == cfg.reps-1 {
			return s, medianOf(raws), medianOf(adjs), nil
		}
		s.close(cfg.h)
	}
}

// tally counts requests and failures across a run's phases and checks.
type tally struct{ attempted, failed int }

func (t *tally) add(r phaseResult) {
	t.attempted += r.Attempted
	t.failed += r.Failed
}

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// sameAnswer reports whether a served response carries exactly the
// neighbours the in-process search returned: same RIDs in the same order
// with bit-identical squared distances.
func sameAnswer(body []byte, want []blobindex.Neighbor) bool {
	var got knnResponse
	if json.Unmarshal(body, &got) != nil || len(got.Neighbors) != len(want) {
		return false
	}
	for i, n := range got.Neighbors {
		if n.RID != want[i].RID || math.Float64bits(n.Dist2) != math.Float64bits(want[i].Dist2) {
			return false
		}
	}
	return true
}

// readLoad is one read workload's generated traffic: the request bodies of
// a phase in send order and, for the sampled requests, the answers the
// oracle gave.
type readLoad struct {
	n       int             // requests in the phase
	queries [][]float64     // the query vectors, for the ladder
	bodies  [][]byte        // queries, marshalled
	pick    func(i int) int // request i sends bodies[pick(i)]
	answers map[int][]blobindex.Neighbor
}

func (l *readLoad) op() opFunc {
	return func(c *client, i int) (bool, int, int) {
		b := l.bodies[l.pick(i)]
		status, body, err := c.post("/v1/knn", b)
		if err != nil {
			return false, len(b), 0
		}
		ok := cheapOK(status, body, k)
		if ok {
			if want, sampled := l.answers[i]; sampled {
				ok = sameAnswer(body, want)
			}
		}
		return ok, len(b), len(body)
	}
}

func identity(i int) int { return i }

// searchReq is the in-process form of the request a workload sends.
func searchReq(q []float64, refine bool) blobindex.SearchRequest {
	r := blobindex.SearchRequest{Query: q, K: k}
	if refine {
		r.Refine, r.TargetRecall = true, 0.99
	}
	return r
}

func knnBody(q []float64, refine bool) []byte {
	r := knnRequest{Query: q, K: k}
	if refine {
		r.Refine, r.TargetRecall = true, 0.99
	}
	return mustJSON(r)
}

// distinctLoad builds a phase of never-repeated queries and asks the oracle
// for the answer to one in checkEvery of them.
func distinctLoad(oracle *blobindex.Index, queries [][]float64, refine bool) (*readLoad, error) {
	l := &readLoad{n: len(queries), queries: queries, bodies: make([][]byte, len(queries)), pick: identity,
		answers: map[int][]blobindex.Neighbor{}}
	for i, q := range queries {
		l.bodies[i] = knnBody(q, refine)
		if i%checkEvery == 0 {
			resp, err := oracle.Search(context.Background(), searchReq(q, refine))
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			l.answers[i] = resp.Neighbors
		}
	}
	return l, nil
}

// verifyServed sends queries one by one and compares every response with
// the oracle bit for bit: the check that runs before any timed phase.
func verifyServed(c *client, oracle *blobindex.Index, queries [][]float64, refine bool, t *tally) error {
	for _, q := range queries {
		want, err := oracle.Search(context.Background(), searchReq(q, refine))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		status, body, err := c.post("/v1/knn", knnBody(q, refine))
		t.check(err == nil && status == 200 && sameAnswer(body, want.Neighbors))
	}
	return nil
}

// servedRecall is mean recall@k of the served answers against exact brute
// force in the space the query is asked in: squared Euclidean distance over
// the index keys, or the quadratic-form distance over full features when
// refining. Ties at the k-th distance count for the server.
func servedRecall(c *client, queries [][]float64, refine bool, dist func(q []float64, rid int) float64, n int) (float64, error) {
	var sum float64
	d := make([]float64, n)
	for _, q := range queries {
		for rid := range d {
			d[rid] = dist(q, rid)
		}
		sorted := slices.Clone(d)
		slices.Sort(sorted)
		kth := sorted[min(k, n)-1]
		status, body, err := c.post("/v1/knn", knnBody(q, refine))
		if err != nil || status != 200 {
			return 0, fmt.Errorf("recall query: status %d, %v", status, err)
		}
		var got knnResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		hit := 0
		for _, nb := range got.Neighbors {
			if nb.RID >= 0 && int(nb.RID) < n && d[nb.RID] <= kth {
				hit++
			}
		}
		sum += float64(hit) / float64(min(k, n))
	}
	return sum / float64(len(queries)), nil
}

func l2(keys [][]float64) func(q []float64, rid int) float64 {
	return func(q []float64, rid int) float64 {
		var s float64
		for d, v := range keys[rid] {
			s += (q[d] - v) * (q[d] - v)
		}
		return s
	}
}

// fileBytes sums the sizes of files and of everything under directories.
func fileBytes(paths []string) (int64, error) {
	var total int64
	for _, p := range paths {
		err := filepath.Walk(p, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// snapshot is the outside view of the system at one instant: each daemon's
// /v1/stats and /proc counters, and the benchmark's own CPU.
type snapshot struct {
	server  serverStats // the single server, or the sum over shards
	router  routerStats
	procs   map[string]procSample
	selfCPU time.Duration
}

func takeSnapshot(s *site) (snapshot, error) {
	snap := snapshot{procs: map[string]procSample{}, selfCPU: selfCPU()}
	for _, role := range []string{"server", "router", "shards"} {
		snap.procs[role] = sampleProcs(s.daemons, role)
	}
	for _, d := range s.daemons {
		c := newClient(d.addr)
		var err error
		switch d.role {
		case "router":
			err = c.getJSON("/v1/stats", &snap.router)
		case "server":
			err = c.getJSON("/v1/stats", &snap.server)
		}
		c.close()
		if err != nil {
			return snap, fmt.Errorf("stats of %s: %w", d.role, err)
		}
	}
	return snap, nil
}

// result is everything one workload run produced.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Scale     string               `json:"scale"`
	Seconds   float64              `json:"seconds"`
	Conns     int                  `json:"conns"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string]reading   `json:"end_to_end"`
	PerLayer  map[string]reading   `json:"per_layer"`
	Slices    map[string][]float64 `json:"closed_slices,omitempty"` // per-slice view of the closed phase
	Monotone  *bool                `json:"ladder_monotone,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	WallS     float64              `json:"wall_s"`
}

// reading is one metric's value with the sample count behind it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func newResult(cfg runCfg, name string) *result {
	r := &result{
		Workload: name, Seed: cfg.seed, Scale: cfg.sc.Name, Seconds: cfg.seconds, Conns: conns,
		EndToEnd: map[string]reading{}, PerLayer: map[string]reading{},
	}
	// A layer the workload does not exercise reads 0.
	for _, m := range perLayer {
		r.PerLayer[m.Name] = reading{Unit: m.Unit}
	}
	return r
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("metric not in spec: " + name) // a typo in this package, never input
}

func (r *result) e2e(name string, v float64, n int) {
	r.EndToEnd[name] = reading{Value: v, Unit: unitOf(endToEnd, name), N: n}
}

func (r *result) layer(name string, v float64, n int) {
	r.PerLayer[name] = reading{Value: v, Unit: unitOf(perLayer, name), N: n}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// pct reads percentile p in milliseconds, enforcing the samples-beyond rule
// at full scale.
func pct(cfg runCfg, s *Samples, p float64) (float64, error) {
	if !cfg.sc.Strict {
		return msOf(s.Loose(p)), nil
	}
	d, err := s.Percentile(p)
	return msOf(d), err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailMS is the closed-loop p99. When every slice of the phase holds enough
// samples to support a p99 of its own, it is the median of the slices' p99s:
// the pooled tail belongs to whichever slice the box treated worst, the
// median to the typical one. Otherwise it is the p99 of the pooled samples.
func tailMS(cfg runCfg, closed phaseResult) (float64, error) {
	_, lat := closed.perSlice()
	var each []float64
	for _, s := range lat {
		d, err := s.Percentile(0.99)
		if err != nil {
			return pct(cfg, closed.Lat, 0.99)
		}
		each = append(each, msOf(d))
	}
	if len(each) < 2 {
		return pct(cfg, closed.Lat, 0.99)
	}
	return medianOf(each), nil
}

// latencyMetrics fills the four latency/throughput end-to-end metrics from
// a closed and an open phase, each at the CPU share the guest was granted
// while the phase ran (see steal.go) with the raw reading beside it, and
// keeps the closed phase's per-slice values in the result for anyone asking
// how steady the run was. rate is the phase throughput_rps is read from:
// the closed one, except where the writers' saturation phase stands in.
func latencyMetrics(cfg runCfg, r *result, closed, open, rate phaseResult) error {
	p50, err := pct(cfg, closed.Lat, 0.50)
	if err != nil {
		return fmt.Errorf("closed phase: %w", err)
	}
	p99, err := tailMS(cfg, closed)
	if err != nil {
		return fmt.Errorf("closed phase: %w", err)
	}
	o50, err := pct(cfg, open.Lat, 0.50)
	if err != nil {
		return fmt.Errorf("open phase: %w", err)
	}
	share := closed.CPU.granted()
	r.e2e("throughput_rps", rate.Throughput()/rate.CPU.granted(), rate.Lat.N())
	r.e2e("p50_ms", p50*share, closed.Lat.N())
	r.e2e("p99_ms", p99*share, closed.Lat.N())
	r.e2e("open_p50_ms", o50*open.CPU.granted(), open.Lat.N())
	r.layer("loadgen.cpu_share", share, int(closed.CPU.busy+closed.CPU.stolen))
	r.layer("loadgen.raw_throughput_rps", rate.Throughput(), rate.Lat.N())
	r.layer("loadgen.raw_p50_ms", p50, closed.Lat.N())
	r.layer("loadgen.raw_p99_ms", p99, closed.Lat.N())
	r.layer("loadgen.raw_open_p50_ms", o50, open.Lat.N())
	if share < 0.95 {
		r.note("noisy: the host stole %.0f%% of the CPU time the closed phase asked for", 100*(1-share))
	}
	rps, lat := closed.perSlice()
	r.Slices = map[string][]float64{"closed_rps": rps}
	for _, s := range lat {
		r.Slices["closed_p50_ms"] = append(r.Slices["closed_p50_ms"], msOf(s.Loose(0.5)))
		r.Slices["closed_p99_ms"] = append(r.Slices["closed_p99_ms"], msOf(s.Loose(0.99)))
	}
	return nil
}

// statsMetrics fills the per-layer metrics that come from outside the
// program — the daemons' counters and /proc — as differences between the
// snapshot before the first timed slice and the one after the last. reqs is
// every request the timed slices sent to the target; closed is the closed
// phase; endpoints names the target's handlers that served it.
func statsMetrics(r *result, s *site, start, end snapshot, closed phaseResult, reqs int, endpoints ...string) {
	b, a := start.server, end.server
	served := func(a, b map[string]latencySummary) (count, sumUs float64) {
		for _, e := range endpoints {
			count += float64(a[e].Count - b[e].Count)
			sumUs += a[e].sumUs() - b[e].sumUs()
		}
		return count, sumUs
	}
	if s.target.role == "server" {
		lookups := float64(a.Cache.Hits - b.Cache.Hits + a.Cache.Misses - b.Cache.Misses)
		r.layer("server.cache_hit_rate", ratio(float64(a.Cache.Hits-b.Cache.Hits), lookups), int(lookups))
		r.layer("server.cache_evictions", float64(a.Cache.Evictions-b.Cache.Evictions), int(lookups))
		r.layer("server.cache_invalidations", float64(a.Cache.Invalidations-b.Cache.Invalidations), int(lookups))
		flights := float64(a.Coalesce.Leaders - b.Coalesce.Leaders + a.Coalesce.Followers - b.Coalesce.Followers)
		r.layer("server.coalesced_ratio", ratio(float64(a.Coalesce.Followers-b.Coalesce.Followers), flights), int(flights))
		rejected := func(st serverStats) int64 { return st.Admission.RejectedFull + st.Admission.RejectedTimeout }
		r.layer("server.rejected", float64(rejected(a)-rejected(b)), int(a.Requests-b.Requests))

		ka, kb := a.Endpoints["knn"], b.Endpoints["knn"]
		r.layer("server.knn_mean_us", ratio(ka.sumUs()-kb.sumUs(), float64(ka.Count-kb.Count)), int(ka.Count-kb.Count))
		r.layer("server.knn_p50_us", ka.P50Us, int(ka.Count))
		r.layer("server.filter_p50_us", a.Stages["filter"].Latency.P50Us, int(a.Stages["filter"].Searches))
		r.layer("server.refine_p50_us", a.Stages["refine"].Latency.P50Us, int(a.Stages["refine"].Searches))
		count, sumUs := served(a.Endpoints, b.Endpoints)
		r.layer("wire.client_minus_server_us", usOf(closed.Lat.Mean())-ratio(sumUs, count), closed.Lat.N())
		if n := a.Stages["refine"].Searches - b.Stages["refine"].Searches; n > 0 {
			r.layer("facade.refine_candidates",
				float64(a.Stages["refine"].Candidates-b.Stages["refine"].Candidates)/float64(n), int(n))
		}

		if a.Buffer != nil && b.Buffer != nil {
			pins := float64(a.Buffer.Hits - b.Buffer.Hits + a.Buffer.Misses - b.Buffer.Misses)
			searches := float64(a.Stages["filter"].Searches - b.Stages["filter"].Searches)
			r.layer("pagefile.pins_per_query", ratio(pins, searches), int(searches))
			r.layer("pagefile.miss_rate", ratio(float64(a.Buffer.Misses-b.Buffer.Misses), pins), int(pins))
			r.layer("pagefile.evictions_per_query", ratio(float64(a.Buffer.Evictions-b.Buffer.Evictions), searches), int(searches))
			pre := float64(a.Buffer.Prefetched - b.Buffer.Prefetched)
			r.layer("pagefile.prefetch_wasted_ratio", ratio(float64(a.Buffer.PrefetchWasted-b.Buffer.PrefetchWasted), pre), int(pre))
		}
		if a.RefineBuffer != nil && b.RefineBuffer != nil {
			pins := float64(a.RefineBuffer.Hits - b.RefineBuffer.Hits + a.RefineBuffer.Misses - b.RefineBuffer.Misses)
			r.layer("pagefile.side_miss_rate", ratio(float64(a.RefineBuffer.Misses-b.RefineBuffer.Misses), pins), int(pins))
		}
		if seg, sb := a.Segments, b.Segments; seg != nil && sb != nil {
			r.layer("segment.count_end", float64(seg.Count), 1)
			r.layer("segment.seals", float64(seg.Seals-sb.Seals), 1)
			r.layer("segment.compactions", float64(seg.Compactions-sb.Compactions), 1)
			var bytes, points int64
			for _, sg := range seg.Segments {
				bytes += sg.SizeBytes
				points += int64(sg.Len)
			}
			r.layer("segment.bytes_per_blob", ratio(float64(bytes), float64(points)), int(points))
		}
	} else {
		fa, fb := end.router.Fanout, start.router.Fanout
		q := float64(fa.Queries - fb.Queries)
		r.layer("cluster.shard_requests_per_query", ratio(float64(fa.ShardRequests-fb.ShardRequests), q), int(q))
		r.layer("cluster.retries", float64(fa.Retries-fb.Retries), int(q))
		r.layer("cluster.hedges", float64(fa.Hedges-fb.Hedges), int(q))
		r.layer("cluster.failovers", float64(fa.Failovers-fb.Failovers), int(q))
		var member []float64
		for _, sh := range end.router.Shards {
			for _, m := range sh.Members {
				member = append(member, m.Latency.P50Us)
			}
		}
		mp50 := medianOf(member)
		ka := end.router.Endpoints["knn"]
		count, sumUs := served(end.router.Endpoints, start.router.Endpoints)
		r.layer("cluster.member_p50_us", mp50, len(member))
		r.layer("cluster.straggler_ratio", ratio(ka.P50Us, mp50), int(ka.Count))
		r.layer("server.knn_mean_us", ratio(sumUs, count), int(count))
		r.layer("server.knn_p50_us", ka.P50Us, int(ka.Count))
		r.layer("wire.client_minus_server_us", usOf(closed.Lat.Mean())-ratio(sumUs, count), closed.Lat.N())
	}

	for _, role := range []string{"server", "router", "shards"} {
		pa, pb := end.procs[role], start.procs[role]
		if pa.peakRSSKB == 0 {
			continue
		}
		r.layer("proc."+role+".cpu_ms_per_req", ratio(float64(pa.cpuTicks-pb.cpuTicks)*clockTickMS, float64(reqs)), reqs)
		r.layer("proc."+role+".peak_rss_mb", float64(pa.peakRSSKB)/1024, 1)
	}
	r.layer("loadgen.cpu_ms_per_req", ratio(msOf(end.selfCPU-start.selfCPU), float64(reqs)), reqs)
	sent := float64(closed.Lat.N() + closed.Failed)
	r.layer("wire.req_bytes", ratio(float64(closed.BytesOut), sent), int(sent))
	r.layer("wire.resp_bytes", ratio(float64(closed.BytesIn), sent), int(sent))
}

func openDiagnostics(r *result, open phaseResult) {
	r.layer("loadgen.open_lag_p99_ms", msOf(open.Lag.Loose(0.99)), open.Lag.N())
	r.layer("loadgen.open_p99_ms", msOf(open.Lat.Loose(0.99)), open.Lat.N())
}

func newClients(addr string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(addr)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// runRead runs one of the four read workloads.
func runRead(cfg runCfg, name string) (*result, error) {
	r := newResult(cfg, name)
	tr := readTraffic[name]
	refine := name == "refine"
	hot := name == "serve-hot"
	if (name == "serve-cold" || refine) && cfg.reps > 1 {
		cfg.reps = cfg.sc.LongReps
	}
	var clients []*client

	// The queries every phase of serve-hot draws from; the other workloads
	// never repeat one.
	var hotQueries [][]float64
	warmup := func(s *site) error {
		clients = newClients(s.target.addr, conns)
		var bodies [][]byte
		if hot {
			hotQueries = distinctQueries(cfg.seed, 10, s.data.keys, cfg.sc.HotDistinct, 0.05)
			for _, q := range hotQueries {
				bodies = append(bodies, knnBody(q, false))
			}
		} else if refine {
			for _, q := range distinctFeatures(cfg.seed, 11, s.data.corpus.Features(), cfg.ops(tr.Warm), 0.1) {
				bodies = append(bodies, knnBody(q, true))
			}
		} else {
			for _, q := range distinctQueries(cfg.seed, 11, s.data.keys, cfg.ops(tr.Warm), 0.05) {
				bodies = append(bodies, knnBody(q, false))
			}
		}
		warm := runClosed(clients, 0, len(bodies), cfg.deadline(), nil, (&readLoad{bodies: bodies, pick: identity}).op())
		if warm.Failed > 0 {
			return fmt.Errorf("warm-up: %d of %d requests failed", warm.Failed, warm.Attempted)
		}
		return nil
	}
	s, rawSetupS, setupS, err := timedSetup(cfg, func() (*site, error) {
		closeClients(clients)
		var s *site
		var err error
		switch name {
		case "serve-hot":
			s, err = setupServed(cfg, cfg.sc.HotImages, blobindex.DefaultPoolPages, false)
		case "serve-cold":
			s, err = setupServed(cfg, cfg.sc.ColdImages, cfg.sc.ColdPool, false)
		case "refine":
			s, err = setupServed(cfg, cfg.sc.HotImages, blobindex.DefaultPoolPages, true)
		case "cluster":
			s, err = setupCluster(cfg)
		}
		if err != nil {
			return nil, err
		}
		return s, warmup(s)
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close(cfg.h)
	defer func() { closeClients(clients) }()
	r.e2e("setup_s", setupS, cfg.reps)
	r.layer("loadgen.raw_setup_s", rawSetupS, cfg.reps)

	// Traffic. Salts: 10 hot set, 11 warm-up, 12 verify, 13 recall, 14
	// closed, 15 open.
	feats := s.data.corpus.Features()
	gen := func(salt uint64, n int) [][]float64 {
		if refine {
			return distinctFeatures(cfg.seed, salt, feats, n, 0.1)
		}
		return distinctQueries(cfg.seed, salt, s.data.keys, n, 0.05)
	}
	var closedLoad, openLoad *readLoad
	nClosed, nOpen := cfg.ops(tr.Closed), cfg.ops(tr.Open)
	if hot {
		// Every rank's answer is known, so the sampled check costs a lookup.
		bodies := make([][]byte, len(hotQueries))
		answers := make([][]blobindex.Neighbor, len(hotQueries))
		for i, q := range hotQueries {
			bodies[i] = knnBody(q, false)
			resp, err := s.oracle.Search(context.Background(), searchReq(q, false))
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			answers[i] = resp.Neighbors
		}
		mk := func(salt int64, n int) *readLoad {
			ranks := zipfRanks(cfg.seed+salt, n, len(hotQueries), 1.1)
			l := &readLoad{n: n, queries: hotQueries, bodies: bodies, pick: func(i int) int { return ranks[i] },
				answers: map[int][]blobindex.Neighbor{}}
			for i := 0; i < n; i += checkEvery {
				l.answers[i] = answers[ranks[i]]
			}
			return l
		}
		closedLoad, openLoad = mk(14, nClosed), mk(15, nOpen)
	} else {
		if closedLoad, err = distinctLoad(s.oracle, gen(14, nClosed), refine); err != nil {
			return nil, err
		}
		if openLoad, err = distinctLoad(s.oracle, gen(15, nOpen), refine); err != nil {
			return nil, err
		}
	}

	// Checks before timing: bit-for-bit answers, then recall.
	var t tally
	nVerify := cfg.sc.Verify
	if refine {
		nVerify = cfg.sc.VerifyRefine
	}
	verify := gen(12, nVerify)
	if hot {
		verify = hotQueries[:min(cfg.sc.Verify, len(hotQueries))]
	}
	if err := verifyServed(clients[0], s.oracle, verify, refine, &t); err != nil {
		return nil, err
	}
	dist := l2(s.data.keys)
	if refine {
		dist = func(q []float64, rid int) float64 { return blobworld.QFDist2(q, feats[rid]) }
	}
	recall, err := servedRecall(clients[0], gen(13, cfg.sc.RecallQueries), refine, dist, len(s.data.keys))
	if err != nil {
		return nil, err
	}
	r.e2e("recall_at_k", recall, cfg.sc.RecallQueries)

	// Timed phases: no spans are recorded in here. The closed and the open
	// phase are cut into slices and interleaved, so that each spans the whole
	// measuring window: this box's speed drifts by ten percent and more over
	// seconds, and a phase that sat inside one such stretch would report it.
	deadline := cfg.deadline()
	due := arrivals(cfg.seed, 16, nOpen, tr.OpenRate)
	closed, open := newPhase(nClosed), newPhase(nOpen)
	start, err := takeSnapshot(s)
	if err != nil {
		return nil, err
	}
	for sl := 0; sl < nSlices; sl++ {
		lo, hi := sliceBounds(nClosed, sl, nSlices)
		closed.add(runClosed(clients, lo, hi, deadline, nil, closedLoad.op()))
		lo, hi = sliceBounds(nOpen, sl, nSlices)
		open.add(runOpen(clients, lo, hi, due, deadline, openLoad.op()))
	}
	end, err := takeSnapshot(s)
	if err != nil {
		return nil, err
	}
	t.add(closed)
	t.add(open)

	if err := latencyMetrics(cfg, r, closed, open, closed); err != nil {
		return nil, err
	}
	bytes, err := fileBytes(s.served)
	if err != nil {
		return nil, err
	}
	r.e2e("disk_bytes_per_blob", float64(bytes)/float64(len(s.data.keys)), len(s.data.keys))
	finish(r, t)
	statsMetrics(r, s, start, end, closed, nClosed+nOpen, "knn")
	openDiagnostics(r, open)

	if cfg.ladder {
		// The daemons are stopped first so the ladder has the cores to itself.
		cfg.h.stopAll()
		if err := readLadder(cfg, r, s, closedLoad, refine); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return r, nil
}

// finish fills the request accounting and success_rate.
func finish(r *result, t tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0
	r.e2e("success_rate", 1-ratio(float64(t.failed), float64(t.attempted)), t.attempted)
}

// runIngest runs the two write workloads: the same phases A and B seen from
// the reader (ingest-mixed) or from the writer (ingest-write, which adds the
// saturation phase C).
func runIngest(cfg runCfg, name string) (*result, error) {
	r := newResult(cfg, name)
	writerView := name == "ingest-write"
	it := ingestTraffic
	var reader, writer []*client

	s, rawSetupS, setupS, err := timedSetup(cfg, func() (*site, error) {
		closeClients(reader)
		closeClients(writer)
		s, err := setupOnline(cfg)
		if err != nil {
			return nil, err
		}
		reader, writer = newClients(s.target.addr, 1), newClients(s.target.addr, conns)
		var bodies [][]byte
		for _, q := range distinctQueries(cfg.seed, 11, s.data.keys, cfg.ops(it.Warm), 0.05) {
			bodies = append(bodies, knnBody(q, false))
		}
		warm := runClosed(reader, 0, len(bodies), cfg.deadline(), nil, (&readLoad{bodies: bodies, pick: identity}).op())
		if warm.Failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.Failed, warm.Attempted)
		}
		return s, nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close(cfg.h)
	defer func() { closeClients(reader); closeClients(writer) }()
	r.e2e("setup_s", setupS, cfg.reps)
	r.layer("loadgen.raw_setup_s", rawSetupS, cfg.reps)

	// Traffic. The reader of phase B runs for as long as the writer does, so
	// it is given more queries than it can use.
	nOpen, nClosedW, nSat := cfg.ops(it.OpenOps), cfg.ops(it.ClosedWrites), cfg.ops(it.SatWrites)
	nClosedR := 4 * nClosedW
	plainReads := func(salt uint64, n int) opFunc {
		qs := distinctQueries(cfg.seed, salt, s.data.keys, n, 0.05)
		bodies := make([][]byte, n)
		for i, q := range qs {
			bodies[i] = knnBody(q, false)
		}
		// The index changes under the reader, so only status and count are
		// checked in phase.
		return (&readLoad{bodies: bodies, pick: identity}).op()
	}
	var acked, deleted []writeOp // by the single writer of phases A and B, in order
	writes := func(stream []writeOp, record bool) opFunc {
		bodies := make([][]byte, len(stream))
		for i, w := range stream {
			bodies[i] = mustJSON(writeRequest{Key: w.Key, RID: w.RID})
		}
		return func(c *client, i int) (bool, int, int) {
			w := stream[i]
			path := "/v1/insert"
			if w.Delete {
				path = "/v1/delete"
			}
			status, body, err := c.post(path, bodies[i])
			if err != nil || status != 200 {
				return false, len(bodies[i]), len(body)
			}
			var ack writeResponse
			ok := json.Unmarshal(body, &ack) == nil && ack.OK && (!w.Delete || ack.Existed)
			if ok && record { // one writer connection: no lock needed
				if w.Delete {
					deleted = append(deleted, w)
				} else {
					acked = append(acked, w)
				}
			}
			return ok, len(bodies[i]), len(body)
		}
	}
	streamA := writeStream(cfg.seed, 20, s.data.keys, nOpen, 0, 0)
	streamB := writeStream(cfg.seed, 21, s.data.keys, nClosedW, 0.1, 1<<24)
	streamC := writeStream(cfg.seed, 22, s.data.keys, nSat, 0, 2<<24)

	var t tally
	if err := verifyServed(reader[0], s.oracle, distinctQueries(cfg.seed, 12, s.data.keys, cfg.sc.Verify, 0.05), false, &t); err != nil {
		return nil, err
	}
	recall, err := servedRecall(reader[0], distinctQueries(cfg.seed, 13, s.data.keys, cfg.sc.RecallQueries, 0.05),
		false, l2(s.data.keys), len(s.data.keys))
	if err != nil {
		return nil, err
	}
	r.e2e("recall_at_k", recall, cfg.sc.RecallQueries)

	// Timed phases, cut into slices and interleaved A B (C) A B (C) ... for
	// the reason given in runRead.
	//   A, open: one connection inserts on a Poisson schedule beside one
	//      connection reading on its own.
	//   B, closed: one writer (a tenth of its operations delete one of its
	//      earlier inserts) beside one reader, for as long as the writer runs.
	//   C, saturation (ingest-write only): every connection inserts, nobody
	//      reads.
	deadline := cfg.deadline()
	dueW, dueR := arrivals(cfg.seed, 16, nOpen, it.OpenRate), arrivals(cfg.seed, 17, nOpen, it.OpenRate)
	opA, opB, opC := writes(streamA, true), writes(streamB, true), writes(streamC, false)
	readA, readB := plainReads(15, nOpen), plainReads(14, nClosedR)
	openW, openR := newPhase(nOpen), newPhase(nOpen)
	closedW, closedR, sat := newPhase(nClosedW), newPhase(nClosedR), newPhase(nSat)
	start, err := takeSnapshot(s)
	if err != nil {
		return nil, err
	}
	for sl := 0; sl < nSlices; sl++ {
		lo, hi := sliceBounds(nOpen, sl, nSlices)
		both(
			func() { openW.add(runOpen(writer[:1], lo, hi, dueW, deadline, opA)) },
			func() { openR.add(runOpen(reader, lo, hi, dueR, deadline, readA)) },
		)
		lo, hi = sliceBounds(nClosedW, sl, nSlices)
		writerDone := make(chan struct{})
		both(
			func() {
				closedW.add(runClosed(writer[:1], lo, hi, deadline, nil, opB))
				close(writerDone)
			},
			// The reader takes up where its last slice stopped.
			func() { closedR.add(runClosed(reader, closedR.Attempted, nClosedR, deadline, writerDone, readB)) },
		)
		if writerView {
			lo, hi = sliceBounds(nSat, sl, nSlices)
			sat.add(runClosed(writer, lo, hi, deadline, nil, opC))
		}
	}
	end, err := takeSnapshot(s)
	if err != nil {
		return nil, err
	}
	for _, p := range []phaseResult{openW, openR, closedW, closedR, sat} {
		t.add(p)
	}

	// Read-your-writes: acknowledged inserts are their own nearest
	// neighbour at distance 0, acknowledged deletes are gone.
	gone := map[int64]bool{}
	for _, w := range deleted {
		gone[w.RID] = true
	}
	var live []writeOp
	for _, w := range acked {
		if !gone[w.RID] {
			live = append(live, w)
		}
	}
	nearest := func(w writeOp) (wireNeighbor, bool) {
		status, body, err := reader[0].post("/v1/knn", mustJSON(knnRequest{Query: w.Key, K: 1}))
		var got knnResponse
		if err != nil || status != 200 || json.Unmarshal(body, &got) != nil || len(got.Neighbors) != 1 {
			return wireNeighbor{}, false
		}
		return got.Neighbors[0], true
	}
	for _, w := range sampleOps(live, 256) {
		nb, ok := nearest(w)
		t.check(ok && nb.RID == w.RID && nb.Dist2 == 0)
	}
	for _, w := range sampleOps(deleted, 64) {
		nb, ok := nearest(w)
		t.check(ok && nb.RID != w.RID)
	}

	view, openView, rate := closedR, openR, closedR
	if writerView {
		view, openView, rate = closedW, openW, sat
	}
	if err := latencyMetrics(cfg, r, view, openView, rate); err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		s    *Samples
		p    float64
	}{
		{"ingest.write_p50_ms", closedW.Lat, 0.5}, {"ingest.write_p99_ms", closedW.Lat, 0.99},
		{"ingest.write_open_p50_ms", openW.Lat, 0.5},
		{"ingest.read_p50_ms", closedR.Lat, 0.5}, {"ingest.read_open_p50_ms", openR.Lat, 0.5},
	} {
		r.layer(m.name, msOf(m.s.Loose(m.p)), m.s.N())
	}

	reqs := t.attempted // every timed request went to the one daemon
	if writerView {
		statsMetrics(r, s, start, end, view, reqs, "insert", "delete")
	} else {
		statsMetrics(r, s, start, end, view, reqs, "knn")
	}
	if seg, sb := end.server.Segments, start.server.Segments; seg != nil && sb != nil {
		writesAcked := openW.Lat.N() + closedW.Lat.N() + sat.Lat.N()
		r.layer("wal.appends_per_write", ratio(float64(seg.Appends-sb.Appends), float64(writesAcked)), writesAcked)
	}
	r.layer("loadgen.open_lag_p99_ms", msOf(openView.Lag.Loose(0.99)), openView.Lag.N())
	r.layer("loadgen.open_p99_ms", msOf(openR.Lat.Loose(0.99)), openR.Lat.N())
	r.layer("loadgen.write_open_p99_ms", msOf(openW.Lat.Loose(0.99)), openW.Lat.N())

	// Space: stop the daemon, reopen what it left (the ladder reads that
	// stack as it is), then fold it into one segment and weigh it. The
	// acknowledged write set is a function of the seed, so this number is
	// too; what the run left on disk before the fold is
	// segment.bytes_per_blob.
	cfg.h.stopAll()
	ix, err := blobindex.OpenOnline(s.served[0], blobindex.OnlineOptions{})
	if err != nil {
		return nil, fmt.Errorf("reopen online index: %w", err)
	}
	defer ix.Close()
	if cfg.ladder {
		if err := writeLadder(cfg, r, s, ix); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	if err := ix.CompactAll(); err != nil {
		return nil, err
	}
	blobs := ix.Len()
	want := len(s.data.points) + len(live)
	if writerView {
		want += sat.Lat.N()
	}
	t.check(blobs == want)
	if blobs != want {
		r.note("reopened index holds %d points, acknowledged writes imply %d", blobs, want)
	}
	if err := ix.Close(); err != nil {
		return nil, err
	}
	bytes, err := fileBytes(s.served)
	if err != nil {
		return nil, err
	}
	r.e2e("disk_bytes_per_blob", float64(bytes)/float64(blobs), blobs)
	finish(r, t)
	return r, nil
}

// both runs f and g concurrently and waits for both.
func both(f, g func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		g()
	}()
	f()
	<-done
}

// sampleOps returns up to n operations spread evenly over ops.
func sampleOps(ops []writeOp, n int) []writeOp {
	if len(ops) <= n {
		return ops
	}
	out := make([]writeOp, n)
	for i := range out {
		out[i] = ops[i*len(ops)/n]
	}
	return out
}

// runWorkload dispatches by name.
func runWorkload(cfg runCfg, name string) (*result, error) {
	start, load := time.Now(), loadavg1()
	var (
		r   *result
		err error
	)
	switch {
	case strings.HasPrefix(name, "ingest-"):
		r, err = runIngest(cfg, name)
	case readTraffic[name] != traffic{}:
		r, err = runRead(cfg, name)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.layer("proc.build_s", cfg.h.buildS, 1)
	r.layer("loadgen.loadavg_start", load, 1)
	if load > 0.5*float64(runtime.NumCPU()) {
		r.note("noisy: 1-minute load average %.2f when the workload began", load)
	}
	r.WallS = time.Since(start).Seconds()
	if len(r.EndToEnd) != len(endToEnd) {
		return nil, errors.New(name + ": internal error: an end-to-end metric was not measured")
	}
	return r, nil
}
