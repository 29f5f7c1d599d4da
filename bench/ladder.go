package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"blobindex"
	"blobindex/internal/am"
	"blobindex/internal/blobworld"
	"blobindex/internal/cluster"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/page"
	"blobindex/internal/pagefile"
	"blobindex/internal/segment"
	"blobindex/internal/server"
	"blobindex/internal/wal"
)

// The layer ladder is the traced run. After the timed phases — which record
// nothing — the same seeded request sample is executed once per rung, from
// the distance kernel up to the router over TCP, one goroutine, in process.
// Each call is wrapped in a span by this file's recorder, from outside the
// layer it calls: nothing under cmd/, internal/ or the root package carries
// instrumentation for it. A rung's metric is the median of its spans, and a
// layer's self time is its rung minus the rung below, so a reader subtracts
// adjacent rows to get each layer's cost.

// span is one timed call into a layer.
type span struct {
	Query  int    `json:"query_id"`
	Rung   string `json:"rung"`
	Parent string `json:"parent_rung"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out when the ladder ends.
type recorder struct {
	t0      time.Time
	spans   []span
	pending []*rung // added and not yet run
	median  map[string]time.Duration
	closers []func()
}

// rung is one layer's entry point, called from outside the layer.
type rung struct {
	name, parent string // parent names the rung above, whose call contains this one
	call         func(i int) error
	lat          *Samples
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity), median: map[string]time.Duration{}}
}

// add queues a rung for the next run.
func (rec *recorder) add(name, parent string, call func(i int) error) *rung {
	r := &rung{name: name, parent: parent, call: call}
	rec.pending = append(rec.pending, r)
	return r
}

// onClose registers what a rung opened; close releases it all, last first.
func (rec *recorder) onClose(f func()) { rec.closers = append(rec.closers, f) }

func (rec *recorder) close() {
	for i := len(rec.closers) - 1; i >= 0; i-- {
		rec.closers[i]()
	}
}

// run executes the queued rungs interleaved: at every step each rung makes
// one request. Rung by rung would be the obvious order, but this box's
// speed drifts by ten percent over a minute, and a rung that ran in a
// faster stretch than the rung below it reports a negative self time;
// interleaved, a slow stretch slows every rung alike. Two refinements keep
// the interleaving itself from favouring a rung, both measured here as
// worth 10-15 % of a search. At one step the rungs work on different
// requests (rung j is j·n/len(rungs) requests ahead), because the second of
// two identical searches run back to back finds the branch predictor and
// the OS page cache trained by the first. And each step runs the rungs in a
// fresh seeded order, because a rung that always follows the same
// neighbour inherits what that neighbour left in the CPU's caches. Every
// rung still makes every request exactly once, and owns whatever pool or
// cache it reads through. A warm-up pass over requests n..2n-1 comes first,
// so the timed pass over 0..n-1 finds pools and allocators warm but no
// answer to its own requests cached.
func (rec *recorder) run(n int) error {
	rungs := rec.pending
	rec.pending = nil
	pass := func(base int, timed bool) error {
		order := rand.New(rand.NewSource(int64(base)))
		for step := 0; step < n; step++ {
			for _, j := range order.Perm(len(rungs)) {
				r := rungs[j]
				i := base + (step+j*n/len(rungs))%n
				start := time.Now()
				err := r.call(i)
				end := time.Now()
				if err != nil {
					return fmt.Errorf("%s request %d: %w", r.name, i, err)
				}
				if timed {
					rec.spans = append(rec.spans, span{i, r.name, r.parent, start.Sub(rec.t0).Nanoseconds(), end.Sub(rec.t0).Nanoseconds()})
					r.lat.Add(end.Sub(start))
				}
			}
		}
		return nil
	}
	if err := pass(n, false); err != nil {
		return err
	}
	for _, r := range rungs {
		r.lat = NewSamples(n)
	}
	if err := pass(0, true); err != nil {
		return err
	}
	for _, r := range rungs {
		rec.median[r.name] = r.lat.Loose(0.5)
	}
	return nil
}

// us is a rung's median in microseconds.
func (r *rung) us() float64 { return usOf(r.lat.Loose(0.5)) }

// overhead measures what recording one span costs, by recording empty ones.
func (rec *recorder) overhead() float64 {
	const n = 20000
	scratch := &recorder{t0: rec.t0, spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		b := time.Now()
		scratch.spans = append(scratch.spans, span{i, "empty", "", a.Sub(rec.t0).Nanoseconds(), b.Sub(rec.t0).Nanoseconds()})
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// write stores the spans as bench/out/trace-<workload>.json.
func (rec *recorder) write(outDir, workload string, seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

// monotone reports whether each rung's median is at least the one below it,
// within 5 %, and names the first pair that is not.
func (rec *recorder) monotone(order []string) (bool, string) {
	med := rec.median
	prev := ""
	for _, name := range order {
		if _, ok := med[name]; !ok {
			continue
		}
		if prev != "" && float64(med[name]) < 0.95*float64(med[prev]) {
			return false, fmt.Sprintf("%s (%.1f us) is below %s (%.1f us)", name, usOf(med[name]), prev, usOf(med[prev]))
		}
		prev = name
	}
	return true, ""
}

// checkReply is the ladder's view of a response: k neighbours when wantK is
// not negative, a plain 200 otherwise.
func checkReply(status int, body []byte, wantK int) error {
	if wantK >= 0 && !cheapOK(status, body, wantK) {
		return fmt.Errorf("status %d, %d neighbours, want %d", status, bytes.Count(body, ridToken), wantK)
	}
	if wantK < 0 && status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	return nil
}

// handlerCall posts body to path on h without a network: the request is
// built and the response recorded in memory.
func handlerCall(h http.Handler, path string, body []byte, wantK int) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return checkReply(w.Code, w.Body.Bytes(), wantK)
}

func tcpCall(c *client, path string, body []byte, wantK int) error {
	status, resp, err := c.post(path, body)
	if err != nil {
		return err
	}
	return checkReply(status, resp, wantK)
}

// newLadderServer wraps ix in a server of its own, so no rung inherits the
// result cache another rung filled.
func newLadderServer(ix *blobindex.Index, cacheEntries int) (http.Handler, error) {
	srv, err := server.New(server.Config{Index: ix, CacheEntries: cacheEntries})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// serveRungs queues the two top rungs every workload has: the request
// through the server's handler in memory over ixH, and a second server over
// ixT behind loopback TCP on one keep-alive connection. Bodies in prime are
// sent through both first: serve-hot's hot set, which the workload warms
// the same way, so that its rungs time result-cache hits. The rungs are
// named server.<op>handler and wire.<op>tcp.
func serveRungs(rec *recorder, ixH, ixT *blobindex.Index, cache int, below, op, path string,
	body func(i int) []byte, wantK int, prime [][]byte) (handler, tcp *rung, err error) {
	h, err := newLadderServer(ixH, cache)
	if err != nil {
		return nil, nil, err
	}
	hT, err := newLadderServer(ixT, cache)
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(hT)
	c := newClient(strings.TrimPrefix(ts.URL, "http://"))
	rec.onClose(func() { c.close(); ts.Close() })
	for _, b := range prime {
		if err := handlerCall(h, path, b, wantK); err != nil {
			return nil, nil, err
		}
		if err := tcpCall(c, path, b, wantK); err != nil {
			return nil, nil, err
		}
	}
	hName, tName := "server."+op+"handler", "wire."+op+"tcp"
	handler = rec.add(hName, below, func(i int) error { return handlerCall(h, path, body(i), wantK) })
	tcp = rec.add(tName, hName, func(i int) error { return tcpCall(c, path, body(i), wantK) })
	return handler, tcp, nil
}

// readLadder climbs the read path with the closed phase's own requests.
func readLadder(cfg runCfg, r *result, s *site, load *readLoad, refine bool) error {
	n := cfg.sc.LadderQueries
	if refine {
		n = cfg.sc.LadderRefine
	}
	if load.n < 2*n {
		return fmt.Errorf("closed phase has %d requests, the ladder needs %d", load.n, 2*n)
	}
	hot := r.Workload == "serve-hot"
	ctx := context.Background()
	rec := newRecorder(16 * n)
	defer rec.close()
	full := func(i int) []float64 { return load.queries[load.pick(i)] }
	body := func(i int) []byte { return load.bodies[load.pick(i)] }

	// One shard's file on cluster (a third of the points: the engine's share
	// of a routed query); the whole index everywhere else.
	idx := s.idxPath
	if s.man != nil {
		idx = s.shards[0]
	}
	fetch := k // what the engine is asked for: the refine filter over-fetches
	var side *pagefile.SideStore
	if refine {
		fetch = k * blobindex.MultiplierForRecall(0.99)
		var err error
		if side, err = pagefile.OpenSidecar(s.side, cfg.sc.SidePool); err != nil {
			return err
		}
		rec.onClose(func() { side.Close() })
	}
	// Index-space form of each request: what the filter stage sees.
	projected := make([][]float64, 2*n)
	for i := range projected {
		if refine {
			projected[i] = side.Project(full(i), nil)
		} else {
			projected[i] = full(i)
		}
	}
	q := func(i int) geom.Vector { return projected[i] }
	// openFacade opens the served file the way the daemon does; every rung
	// that needs the facade gets an index, and so a pool, of its own.
	openFacade := func() (*blobindex.Index, error) {
		ix, err := blobindex.OpenWithOptions(idx, blobindex.OpenOptions{PoolPages: s.pool})
		if err != nil {
			return nil, err
		}
		rec.onClose(func() { ix.Close() })
		if refine {
			err = ix.AttachRefine(s.side, cfg.sc.SidePool)
		}
		return ix, err
	}

	// Rung: the kernel, on the tree's fullest leaf block.
	mem, err := pagefile.Load(idx, am.Options{})
	if err != nil {
		return err
	}
	var block []float64
	ridLeaf := make(map[int64]page.PageID, mem.Len())
	if err := mem.Walk(func(nd *gist.Node, _ gist.Predicate) {
		if !nd.IsLeaf() {
			return
		}
		if len(nd.FlatKeys()) > len(block) {
			block = nd.FlatKeys()
		}
		for e := 0; e < nd.NumEntries(); e++ {
			ridLeaf[nd.LeafRID(e)] = nd.ID()
		}
	}); err != nil {
		return err
	}
	const kernelBatch = 64 // one call is ~100 ns, below the clock's comfort
	dists := make([]float64, 0, len(block)/indexDim)
	kernel := rec.add("geom.block", "nn.mem", func(i int) error {
		for j := 0; j < kernelBatch; j++ {
			dists = geom.Dist2FlatBlock(q(i), block, indexDim, dists[:0])
		}
		return nil
	})

	// Rungs: nn on the in-memory tree; the same search over the demand-paged
	// file at the workload's pool; the same tree as the only segment of a
	// stack; the facade over its own open of the same file.
	search := func(tree *gist.Tree) func(i int) error {
		dst := make([]nn.Result, 0, fetch)
		return func(i int) error {
			var err error
			dst, err = nn.SearchCtxInto(ctx, tree, q(i), fetch, nil, dst[:0])
			return err
		}
	}
	nnMem := rec.add("nn.mem", "pagefile.paged", search(mem))
	paged, store, err := pagefile.OpenPaged(idx, am.Options{}, s.pool)
	if err != nil {
		return err
	}
	rec.onClose(func() { store.Close() })
	nnPaged := rec.add("pagefile.paged", "segment.stack", search(paged))
	stackTree, stackStore, err := pagefile.OpenPaged(idx, am.Options{}, s.pool)
	if err != nil {
		return err
	}
	stack := segment.NewStack([]segment.Segment{segment.WrapFile(stackTree, stackStore, idx, 0)}, nil)
	rec.onClose(func() { stack.Close() })
	stackDst := make([]nn.Result, 0, fetch)
	seg := rec.add("segment.stack", "facade.search", func(i int) error {
		var err error
		stackDst, err = stack.SearchKNN(ctx, q(i), fetch, stackDst[:0])
		return err
	})
	ix, err := openFacade()
	if err != nil {
		return err
	}
	nbrs := make([]blobindex.Neighbor, 0, fetch)
	facade := rec.add("facade.search", "server.handler", func(i int) error {
		resp, err := ix.SearchInto(ctx, blobindex.SearchRequest{Query: q(i), K: fetch}, nbrs[:0])
		nbrs = resp.Neighbors
		return err
	})
	engine := []string{"nn.mem", "pagefile.paged", "segment.stack", "facade.search"}

	// What the handler's own call into the facade costs: the refined search
	// on refine, nothing on serve-hot (every request is a result-cache hit),
	// the plain search everywhere else.
	belowHandler := facade
	var prime [][]byte
	var refineDone func()
	if refine {
		if belowHandler, refineDone, err = refineRungs(rec, r, side, ix, s, n, full, projected); err != nil {
			return err
		}
		engine = append(engine, "facade.refine")
	} else if hot {
		belowHandler, prime = nil, load.bodies
	}
	ixH, err := openFacade()
	if err != nil {
		return err
	}
	ixT, err := openFacade()
	if err != nil {
		return err
	}
	handler, tcp, err := serveRungs(rec, ixH, ixT, s.cache, engine[len(engine)-1], "", "/v1/knn", body, k, prime)
	if err != nil {
		return err
	}
	serving := []string{"server.handler", "wire.tcp"}
	var routerHandler, routerTCP *rung
	if s.man != nil {
		if routerHandler, routerTCP, err = routerRungs(rec, s, body); err != nil {
			return err
		}
		serving = append(serving, "cluster.router_handler", "cluster.router_tcp")
	}

	if err := rec.run(n); err != nil {
		return err
	}

	blockNS := float64(kernel.lat.Loose(0.5)) / kernelBatch
	r.layer("geom.block_ns_per_leaf", blockNS, n)
	// Counts come from a separate traced pass, so the timed one pays for no
	// trace appends.
	var leaves, inner, empty int
	dst := make([]nn.Result, 0, fetch)
	for i := 0; i < n; i++ {
		var tr gist.Trace
		if dst, err = nn.SearchCtxInto(ctx, mem, q(i), fetch, &tr, dst[:0]); err != nil {
			return err
		}
		useful := map[page.PageID]bool{}
		for _, res := range dst {
			useful[ridLeaf[res.RID]] = true
		}
		visited := tr.LeafAccesses()
		leaves += visited
		inner += tr.InnerAccesses()
		empty += visited - len(useful)
	}
	leavesPerQuery := float64(leaves) / float64(n)
	r.layer("geom.leaf_blocks_per_query", leavesPerQuery, n)
	r.layer("nn.leaves_per_query", leavesPerQuery, n)
	r.layer("nn.inner_per_query", float64(inner)/float64(n), n)
	r.layer("nn.empty_leaf_ratio", ratio(float64(empty), float64(leaves)), leaves)
	r.layer("nn.total_us", nnMem.us(), n)
	r.layer("nn.self_us", nnMem.us()-leavesPerQuery*blockNS/1e3, n)
	r.layer("pagefile.total_us", nnPaged.us(), n)
	r.layer("pagefile.self_us", nnPaged.us()-nnMem.us(), n)
	r.layer("segment.total_us", seg.us(), n)
	r.layer("segment.self_us", seg.us()-nnPaged.us(), n)
	r.layer("facade.search_us", facade.us(), n)
	r.layer("facade.self_us", facade.us()-seg.us(), n)
	if refineDone != nil {
		refineDone()
	}
	r.layer("server.handler_us", handler.us(), n)
	r.layer("server.self_us", handler.us(), n)
	if belowHandler != nil {
		r.layer("server.self_us", handler.us()-belowHandler.us(), n)
	}
	r.layer("wire.tcp_us", tcp.us(), n)
	r.layer("wire.self_us", tcp.us()-handler.us(), n)
	if routerHandler != nil {
		r.layer("cluster.router_handler_us", routerHandler.us(), n)
		r.layer("cluster.self_us", routerHandler.us()-tcp.us(), n)
		r.layer("cluster.router_tcp_us", routerTCP.us(), n)
	}

	// On serve-hot the handler answers from its cache, below what a search
	// costs: its two serving rungs form a ladder of their own.
	orders := [][]string{append(engine, serving...)}
	if hot {
		orders = [][]string{engine, serving}
	}
	rec.verdict(r, orders...)
	return rec.write(filepath.Join(cfg.h.root, "bench", "out"), r.Workload, cfg.seed)
}

// verdict records whether the rows of each order are monotone, and what
// recording a span costs.
func (rec *recorder) verdict(r *result, orders ...[]string) {
	ok, why := true, ""
	for _, order := range orders {
		if ok {
			ok, why = rec.monotone(order)
		}
	}
	r.Monotone = &ok
	if !ok {
		r.note("ladder not monotone: %s", why)
	}
	r.layer("loadgen.span_overhead_ns", rec.overhead(), 20000)
}

// refineRungs queues the refine tier's rows: the arithmetic floor, the
// sidecar reads in the order the facade makes them, and the refined search.
// done, called after the run, fills their metrics.
func refineRungs(rec *recorder, r *result, side *pagefile.SideStore, ix *blobindex.Index,
	s *site, n int, full func(int) []float64, projected [][]float64) (refined *rung, done func(), err error) {
	ctx := context.Background()
	feats := s.data.corpus.Features()

	// QFDist2 alone, both vectors in memory.
	const qfBatch = 16
	var sink float64
	qf := rec.add("blobworld.qfdist", "facade.refine", func(i int) error {
		for j := 0; j < qfBatch; j++ {
			sink += blobworld.QFDist2(full(i), feats[(i*qfBatch+j)%len(feats)])
		}
		return nil
	})

	// Sidecar reads: each request's candidates, RID-sorted as the facade
	// sorts them before reading.
	fetch := k * blobindex.MultiplierForRecall(0.99)
	cands := make([][]int64, 2*n)
	for i := range cands {
		resp, err := ix.Search(ctx, blobindex.SearchRequest{Query: projected[i], K: fetch})
		if err != nil {
			return nil, nil, err
		}
		rids := make([]int64, len(resp.Neighbors))
		for j, nb := range resp.Neighbors {
			rids[j] = nb.RID
		}
		slices.Sort(rids)
		cands[i] = rids
	}
	perPage := pagefile.SidecarRecordsPerPage(8192, side.FullDim())
	var pages, total int
	for _, rids := range cands[:n] {
		seen := map[int64]bool{}
		for _, rid := range rids {
			seen[rid/int64(perPage)] = true // RIDs are dense blob numbers, RID-ordered on disk
		}
		pages += len(seen)
		total += len(rids)
	}
	buf := make([]float64, 0, side.FullDim())
	feature := rec.add("pagefile.side_feature", "facade.refine", func(i int) error {
		for _, rid := range cands[i] {
			var err error
			if buf, err = side.Feature(rid, buf[:0]); err != nil {
				return err
			}
		}
		return nil
	})

	nbrs := make([]blobindex.Neighbor, 0, k)
	refined = rec.add("facade.refine", "server.handler", func(i int) error {
		resp, err := ix.SearchInto(ctx, blobindex.SearchRequest{Query: full(i), K: k, Refine: true, TargetRecall: 0.99}, nbrs[:0])
		nbrs = resp.Neighbors
		return err
	})
	return refined, func() {
		_ = sink
		r.layer("blobworld.qfdist_ns", float64(qf.lat.Loose(0.5))/qfBatch, n*qfBatch)
		r.layer("pagefile.side_feature_us", feature.us()/float64(max(1, total/n)), total)
		r.layer("pagefile.side_pages_per_candidate", ratio(float64(pages), float64(total)), total)
		r.layer("facade.refine_us", refined.us(), n)
	}, nil
}

// routerRungs queues the cluster's rows: the router's handler over three
// in-process shard servers on loopback TCP, and a second router with shard
// servers of its own behind TCP.
func routerRungs(rec *recorder, s *site, body func(int) []byte) (handler, tcp *rung, err error) {
	boot := func() (*cluster.Router, error) {
		man := *s.man
		man.Shards = append([]cluster.Shard(nil), s.man.Shards...)
		for i, path := range s.shards {
			ix, err := blobindex.OpenWithOptions(path, blobindex.OpenOptions{})
			if err != nil {
				return nil, err
			}
			rec.onClose(func() { ix.Close() })
			h, err := newLadderServer(ix, s.cache)
			if err != nil {
				return nil, err
			}
			ts := httptest.NewServer(h)
			rec.onClose(ts.Close)
			man.Shards[i].Members = []string{strings.TrimPrefix(ts.URL, "http://")}
		}
		rt, err := cluster.NewRouter(cluster.Config{Manifest: &man})
		if err != nil {
			return nil, err
		}
		rec.onClose(rt.Close)
		return rt, nil
	}
	rt, err := boot()
	if err != nil {
		return nil, nil, err
	}
	h := rt.Handler()
	handler = rec.add("cluster.router_handler", "cluster.router_tcp", func(i int) error {
		return handlerCall(h, "/v1/knn", body(i), k)
	})
	if rt, err = boot(); err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(rt.Handler())
	c := newClient(strings.TrimPrefix(ts.URL, "http://"))
	rec.onClose(func() { c.close(); ts.Close() })
	tcp = rec.add("cluster.router_tcp", "", func(i int) error { return tcpCall(c, "/v1/knn", body(i), k) })
	return handler, tcp, nil
}

// fsyncWriter returns a function that appends 64 bytes to a scratch file
// in dir and fsyncs it — the device's floor under every durable write —
// and a function that removes the file.
func fsyncWriter(dir string) (sync func() error, done func(), err error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, 64)
	sync = func() error {
		if _, err := f.Write(buf); err != nil {
			return err
		}
		return f.Sync()
	}
	return sync, func() { f.Close(); os.Remove(f.Name()) }, nil
}

// writeLadder climbs the write path with a seeded insert stream, then the
// top of the read path over the online directory as the run left it.
func writeLadder(cfg runCfg, r *result, s *site, left *blobindex.Index) error {
	n := cfg.sc.LadderWrites
	rec := newRecorder(8 * n)
	defer rec.close()
	dir, err := os.MkdirTemp(cfg.h.workDir, "ladder-")
	if err != nil {
		return err
	}
	rec.onClose(func() { os.RemoveAll(dir) })
	stream := writeStream(cfg.seed, 30, s.data.keys, 2*n, 0, 3<<24)

	// Rung: the device.
	sync, done, err := fsyncWriter(dir)
	if err != nil {
		return err
	}
	rec.onClose(done)
	fsync := rec.add("device.fsync", "wal.append", func(int) error { return sync() })

	// Rung: one record appended to a write-ahead log.
	log, err := wal.Create(filepath.Join(dir, wal.FileName(1)), indexDim, 1)
	if err != nil {
		return err
	}
	rec.onClose(func() { log.Close() })
	size0 := log.SizeBytes()
	appendR := rec.add("wal.append", "facade.insert", func(i int) error {
		return log.Append(wal.Record{Op: wal.OpInsert, RID: stream[i].RID, Key: stream[i].Key})
	})

	// Rung: the in-memory apply.
	ext, err := am.New(am.KindXJB, am.Options{})
	if err != nil {
		return err
	}
	memSeg, err := segment.NewMem(ext, gist.Config{Dim: indexDim, PageSize: 8192}, 1)
	if err != nil {
		return err
	}
	memInsert := rec.add("segment.mem_insert", "facade.insert", func(i int) error {
		return memSeg.Insert(gist.Point{Key: geom.Vector(stream[i].Key).Clone(), RID: stream[i].RID})
	})

	// Rungs: the facade's durable insert, sealing at the run's threshold;
	// the insert through the handler; the insert over TCP. Each writes an
	// online index of its own.
	online := func(name string) (*blobindex.Index, error) {
		ix, err := blobindex.CreateOnline(filepath.Join(dir, name), indexOptions(cfg.seed),
			blobindex.OnlineOptions{SealThreshold: cfg.sc.SealThreshold})
		if err == nil {
			rec.onClose(func() { ix.Close() })
		}
		return ix, err
	}
	ix, err := online("facade")
	if err != nil {
		return err
	}
	insert := rec.add("facade.insert", "server.insert_handler", func(i int) error {
		return ix.Insert(blobindex.Point{Key: stream[i].Key, RID: stream[i].RID})
	})
	ixH, err := online("handler")
	if err != nil {
		return err
	}
	ixT, err := online("tcp")
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(stream))
	for i, w := range stream {
		bodies[i] = mustJSON(writeRequest{Key: w.Key, RID: w.RID})
	}
	insertH, insertT, err := serveRungs(rec, ixH, ixT, s.cache, "facade.insert", "insert_", "/v1/insert",
		func(i int) []byte { return bodies[i] }, -1, nil)
	if err != nil {
		return err
	}
	if err := rec.run(n); err != nil {
		return err
	}
	r.layer("device.fsync_us", fsync.us(), n)
	r.layer("wal.append_us", appendR.us(), n)
	r.layer("wal.self_us", appendR.us()-fsync.us(), n)
	r.layer("wal.bytes_per_write", float64(log.SizeBytes()-size0)/float64(2*n), 2*n)
	r.layer("segment.mem_insert_us", memInsert.us(), n)
	r.layer("facade.insert_us", insert.us(), n)
	r.layer("facade.insert_self_us", insert.us()-appendR.us(), n)
	r.layer("server.insert_handler_us", insertH.us(), n)
	r.layer("wire.insert_tcp_us", insertT.us(), n)

	// The read path over the segment stack the run left behind. The online
	// directory opens once, so the three rungs share the index; its pool
	// holds every page, and each server rung has a result cache of its own.
	nq := cfg.sc.LadderQueries
	qs := distinctQueries(cfg.seed, 31, s.data.keys, 2*nq, 0.05)
	nbrs := make([]blobindex.Neighbor, 0, k)
	facade := rec.add("facade.search", "server.handler", func(i int) error {
		resp, err := left.SearchInto(context.Background(), blobindex.SearchRequest{Query: qs[i], K: k}, nbrs[:0])
		nbrs = resp.Neighbors
		return err
	})
	body := func(i int) []byte { return knnBody(qs[i], false) }
	handler, tcp, err := serveRungs(rec, left, left, s.cache, "facade.search", "", "/v1/knn", body, k, nil)
	if err != nil {
		return err
	}
	if err := rec.run(nq); err != nil {
		return err
	}
	r.layer("facade.search_us", facade.us(), nq)
	r.layer("server.handler_us", handler.us(), nq)
	r.layer("server.self_us", handler.us()-facade.us(), nq)
	r.layer("wire.tcp_us", tcp.us(), nq)
	r.layer("wire.self_us", tcp.us()-handler.us(), nq)
	rec.verdict(r,
		[]string{"device.fsync", "wal.append", "facade.insert", "server.insert_handler", "wire.insert_tcp"},
		[]string{"facade.search", "server.handler", "wire.tcp"})
	return rec.write(filepath.Join(cfg.h.root, "bench", "out"), r.Workload, cfg.seed)
}
