package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobindex/internal/apiclient"
	"blobindex/internal/buildinfo"
	"blobindex/internal/server"
	"blobindex/internal/wire"
)

// Config sizes the router. Zero values pick sensible defaults for every
// field except Manifest.
type Config struct {
	// Manifest describes the cluster: partition scheme and every shard's
	// members. Required; every shard needs at least one member address.
	Manifest *Manifest
	// HTTPClient is the shared transport for all shard traffic. Default: a
	// pooled transport sized for steady fan-out.
	HTTPClient *http.Client
	// ShardTimeout bounds each attempt against one member. Default 2s.
	ShardTimeout time.Duration
	// Retries is how many extra attempts a failed shard call gets, each on
	// the next member in health order — the bounded retry that implements
	// replica failover. Default 1; capped at the shard's member count - 1.
	Retries int
	// HedgeDelay, when positive, launches the next member's attempt if the
	// current one has not answered within the delay, taking whichever
	// answers first — tail-latency insurance paid for in duplicate work.
	// Default 0: disabled.
	HedgeDelay time.Duration
	// MaxFanout bounds concurrently outstanding shard calls per query.
	// Default: all shards at once.
	MaxFanout int
	// MaxK caps the per-request k, mirroring the shard daemons. Default 4096.
	MaxK int
	// HealthInterval is the /readyz polling period. Default 1s.
	HealthInterval time.Duration
}

// endpoint names, which are also the keys of RouterStats.Endpoints.
var routerEndpoints = []string{"knn", "range", "insert", "delete", "stats"}

// Router is the scatter-gather tier: it fans searches out to every shard,
// merges per-shard top-k by (Dist2, RID), routes writes to the owning
// shard's primary, and fails over to replicas around unhealthy members.
// Create with NewRouter, mount Handler, Close when done.
type Router struct {
	cfg    Config
	man    *Manifest
	part   Partitioner
	shards [][]*member
	all    []int // every shard index, the scatter's target list
	health *healthTracker

	mux   *http.ServeMux
	start time.Time
	hists map[string]*server.Histogram

	requests          atomic.Int64
	queries           atomic.Int64
	shardRequests     atomic.Int64
	topUps            atomic.Int64
	retries           atomic.Int64
	hedges            atomic.Int64
	failovers         atomic.Int64
	partitionFailures atomic.Int64
	writes            atomic.Int64
	writeErrors       atomic.Int64
}

// NewRouter builds a Router over cfg.Manifest and starts its health
// tracker.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("cluster: Config.Manifest is required")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	for _, s := range cfg.Manifest.Shards {
		if len(s.Members) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no members", s.ID)
		}
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.MaxFanout <= 0 {
		cfg.MaxFanout = len(cfg.Manifest.Shards)
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 4096
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	part, err := PartitionerFor(cfg.Manifest)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:   cfg,
		man:   cfg.Manifest,
		part:  part,
		start: time.Now(),
		hists: make(map[string]*server.Histogram, len(routerEndpoints)),
	}
	r.shards = make([][]*member, len(cfg.Manifest.Shards))
	for si, s := range cfg.Manifest.Shards {
		r.all = append(r.all, si)
		ms := make([]*member, len(s.Members))
		for mi, addr := range s.Members {
			ms[mi] = &member{
				addr:    addr,
				primary: mi == 0,
				cli: apiclient.New(addr, apiclient.Options{
					HTTPClient:     cfg.HTTPClient,
					RequestTimeout: cfg.ShardTimeout,
				}),
			}
		}
		r.shards[si] = ms
	}
	for _, name := range routerEndpoints {
		r.hists[name] = &server.Histogram{}
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /v1/knn", r.instrument("knn", r.handleKNN))
	r.mux.HandleFunc("POST /v1/range", r.instrument("range", r.handleRange))
	r.mux.HandleFunc("POST /v1/insert", r.instrument("insert", r.handleInsert))
	r.mux.HandleFunc("POST /v1/delete", r.instrument("delete", r.handleDelete))
	r.mux.HandleFunc("GET /v1/stats", r.instrument("stats", r.handleStats))
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /readyz", r.handleReadyz)

	r.health = newHealthTracker(r.shards, cfg.HealthInterval)
	r.health.start()
	return r, nil
}

// Handler returns the router's HTTP handler (mount at /). The wire
// protocol is blobserved's: clients cannot tell a router from a shard.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the health tracker.
func (r *Router) Close() { r.health.close() }

// --- plumbing (the router speaks the shard daemons' wire protocol) ---

func (r *Router) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	hist := r.hists[name]
	return func(w http.ResponseWriter, req *http.Request) {
		r.requests.Add(1)
		start := time.Now()
		status := h(w, req)
		hist.Observe(time.Since(start), status >= 400)
	}
}

func (r *Router) validQuery(q []float64) error {
	if len(q) != r.man.Dim {
		return fmt.Errorf("query dimension %d, cluster dimension %d", len(q), r.man.Dim)
	}
	for _, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("query coordinates must be finite")
		}
	}
	return nil
}

// shardErrStatus maps a failed shard call to the router's response status:
// a definitive shard answer (bad request, no sidecar, corruption) passes
// through, everything transient — transport failures, 429/503, context
// expiry — becomes 503 + Retry-After, the "partition unavailable, retry"
// signal.
func shardErrStatus(err error) int {
	var se *apiclient.StatusError
	if errors.As(err, &se) && !se.Retryable() {
		return se.Code
	}
	return http.StatusServiceUnavailable
}

// --- scatter-gather ---

// shardAnswer is one shard's search answer, scanned but not decoded: the
// body and the spans of its neighbours. Answers are pooled; a 200-NN body
// is ~14 KB.
type shardAnswer struct {
	body []byte
	scan wire.Scan
}

var answerPool = sync.Pool{New: func() any { return new(shardAnswer) }}

// mergePool holds the merged neighbours arrays the search handlers write.
var mergePool = sync.Pool{New: func() any { return new([]byte) }}

// attempt posts the query's encoded body to one member and scans the
// answer, feeding the member's latency histogram and passive health
// signals. A 200 whose body fails the scan is a failed attempt like any
// other.
func (r *Router) attempt(ctx context.Context, m *member, path string, body []byte) (*shardAnswer, error) {
	r.shardRequests.Add(1)
	a := answerPool.Get().(*shardAnswer)
	start := time.Now()
	var err error
	if a.body, err = m.cli.Post(ctx, path, body, a.body); err == nil {
		a.scan, err = wire.ScanSearchResponse(a.body, a.scan.Neighbors)
	}
	if err != nil {
		answerPool.Put(a)
		// An abandoned query — the client left, or a sibling shard already
		// failed it — is no verdict on the member.
		if ctx.Err() == nil {
			m.lat.Observe(time.Since(start), true)
			m.noteFailure(err)
		}
		return nil, err
	}
	m.lat.Observe(time.Since(start), false)
	m.noteSuccess()
	m.served.Add(1)
	return a, nil
}

// memberOrder returns a shard's members in routing preference: healthy or
// not yet probed first, then degraded, then down — each group in manifest
// order, so the primary leads its group. Unprobed ranks with healthy so a
// health round that publishes a replica's verdict before its primary's does
// not route the primary's traffic to the replica. This is how the router
// "routes around" a degraded shard: its replica simply sorts first.
func (r *Router) memberOrder(si int) []*member {
	ms := r.shards[si]
	order := make([]*member, len(ms))
	copy(order, ms)
	rank := func(m *member) int {
		switch m.getState() {
		case StateHealthy, StateUnknown:
			return 0
		case StateDegraded:
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return rank(order[i]) < rank(order[j]) })
	return order
}

// callShard serves one shard's slice of a query: attempts members in
// health order with a per-attempt timeout, failing over to the next member
// on error (bounded by Retries) and optionally hedging — launching the
// next member early when the current attempt is slow. First success wins.
func (r *Router) callShard(ctx context.Context, si int, path string, body []byte) (*shardAnswer, error) {
	order := r.memberOrder(si)
	maxAttempts := 1 + r.cfg.Retries
	if maxAttempts > len(order) {
		maxAttempts = len(order)
	}
	type outcome struct {
		m   *member
		a   *shardAnswer
		err error
	}
	ch := make(chan outcome, maxAttempts)
	launched := 0
	launch := func() {
		m := order[launched]
		launched++
		go func() {
			a, err := r.attempt(ctx, m, path, body)
			ch <- outcome{m, a, err}
		}()
	}
	launch()
	var hedgeC <-chan time.Time
	if r.cfg.HedgeDelay > 0 && maxAttempts > 1 {
		t := time.NewTimer(r.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				if !o.m.primary {
					r.failovers.Add(1)
				}
				return o.a, nil
			}
			lastErr = o.err
			if launched < maxAttempts {
				r.retries.Add(1)
				launch()
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < maxAttempts {
				r.hedges.Add(1)
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// scatter posts the encoded query body to path on every shard and returns
// every shard's answer, or the first shard failure in time: a k-NN answer
// missing a partition is not an answer, so one dead partition fails the
// query (503 + Retry-After at the handler).
func (r *Router) scatter(ctx context.Context, path string, body []byte) ([]*shardAnswer, error) {
	r.queries.Add(1)
	return r.gather(ctx, r.all, path, body)
}

// gather posts body to path on each listed shard with bounded concurrency.
// The answers are indexed by shard; unlisted shards' entries are nil. The
// first failure cancels the other calls, so a stalled sibling cannot hold a
// definitive answer back until its timeout, and their cancellations cannot
// mask it; every answer gathered is then released.
func (r *Router) gather(ctx context.Context, shards []int, path string, body []byte) ([]*shardAnswer, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	answers := make([]*shardAnswer, len(r.shards))
	var (
		once   sync.Once
		failed error
	)
	sem := make(chan struct{}, r.cfg.MaxFanout)
	var wg sync.WaitGroup
	for _, si := range shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var err error
			select {
			case sem <- struct{}{}:
				answers[si], err = r.callShard(ctx, si, path, body)
				<-sem
			case <-ctx.Done():
				err = ctx.Err()
			}
			if err != nil {
				once.Do(func() {
					failed = fmt.Errorf("shard %d: %w", si, err)
					cancel()
				})
			}
		}(si)
	}
	wg.Wait()
	if failed != nil {
		r.partitionFailures.Add(1)
		release(answers)
		return nil, failed
	}
	return answers, nil
}

// pushDownK is the k each shard is first asked for. A hash partition
// spreads the global top k over s shards binomially: one shard's share has
// mean k/s and standard deviation √(k·(1/s)·(1−1/s)), so k/s plus three
// deviations covers all but ~0.1 % of shards, and topUp asks those again.
// Refine requests (whose shards rank k × multiplier candidates) and space
// partitions (where one slab usually holds the whole answer, so a top-up
// would cost most queries a second round trip) get the client's k.
func (r *Router) pushDownK(kreq *wire.KNNRequest) int {
	s := float64(len(r.shards))
	if kreq.Refine || r.man.Partition != PartitionHash || s < 2 {
		return kreq.K
	}
	k := float64(kreq.K)
	return min(kreq.K, int(math.Ceil(k/s+3*math.Sqrt(k*(1/s)*(1-1/s)))))
}

// kthDist2 is the k-th smallest Dist2 across the answers, +Inf when they
// hold fewer than k neighbours.
func kthDist2(answers []*shardAnswer, k int) float64 {
	lists := make([][]wire.Span, len(answers))
	n := 0
	for i, a := range answers {
		lists[i] = a.scan.Neighbors
		n += len(lists[i])
	}
	if n < k {
		return math.Inf(1)
	}
	var kth float64
	mergeHeads(lists, k, spanLess, func(_ int, s wire.Span) { kth = s.Dist2 })
	return kth
}

// topUp completes a pushed-down k-NN scatter in place. Each shard was asked
// for sent ≤ kreq.K neighbours. One that returned fewer holds no more; one
// whose last neighbour lies strictly beyond the merged k-th distance has
// every unreturned neighbour beyond it too. Only the rest — a full answer
// whose last Dist2 is at most the merged k-th, inclusive because an equal
// distance still wins on a smaller RID — could hold a winner, and each is
// asked again for the client's k through callShard, concurrently. Their new
// answers replace the old, so the merge sees exactly what a full-k scatter
// would have returned. On failure every answer is released.
func (r *Router) topUp(ctx context.Context, answers []*shardAnswer, kreq *wire.KNNRequest, sent int) error {
	kth := kthDist2(answers, kreq.K)
	var need []int
	for si, a := range answers {
		if l := a.scan.Neighbors; len(l) >= sent && l[len(l)-1].Dist2 <= kth {
			need = append(need, si)
		}
	}
	if len(need) == 0 {
		return nil
	}
	body, err := json.Marshal(kreq)
	if err != nil {
		release(answers)
		return err
	}
	r.topUps.Add(int64(len(need)))
	fresh, err := r.gather(ctx, need, "/v1/knn", body)
	if err != nil {
		release(answers)
		return err
	}
	for _, si := range need {
		answerPool.Put(answers[si])
		answers[si] = fresh[si]
	}
	return nil
}

// release returns answers to their pool.
func release(answers []*shardAnswer) {
	for _, a := range answers {
		if a != nil {
			answerPool.Put(a)
		}
	}
}

// writeMerged answers 200 with the merge of answers: their first k
// neighbours (k <= 0: all) by (Dist2, RID), each copied verbatim from its
// shard's body, and tail's other fields. It releases answers.
func writeMerged(w http.ResponseWriter, answers []*shardAnswer, k int, tail *wire.SearchResponse) int {
	bodies := make([][]byte, len(answers))
	lists := make([][]wire.Span, len(answers))
	for i, a := range answers {
		bodies[i], lists[i] = a.body, a.scan.Neighbors
	}
	buf := mergePool.Get().(*[]byte)
	*buf = mergeSpans((*buf)[:0], bodies, lists, k)
	status := wire.WriteSearch(w, *buf, tail)
	mergePool.Put(buf)
	release(answers)
	return status
}

// --- endpoints ---

func (r *Router) handleKNN(w http.ResponseWriter, req *http.Request) int {
	var kreq wire.KNNRequest
	if err := wire.DecodeBody(w, req, &kreq); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	// A refining query carries the full-dimensionality vector; its length
	// is the sidecar's business, so only the shards can validate it.
	if !kreq.Refine {
		if err := r.validQuery(kreq.Query); err != nil {
			return wire.WriteError(w, http.StatusBadRequest, "%v", err)
		}
	}
	if kreq.K <= 0 || kreq.K > r.cfg.MaxK {
		return wire.WriteError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", r.cfg.MaxK, kreq.K)
	}
	sreq := kreq
	sreq.K = r.pushDownK(&kreq)
	body, err := json.Marshal(sreq)
	if err != nil {
		return wire.WriteError(w, http.StatusInternalServerError, "encode shard request: %v", err)
	}
	answers, err := r.scatter(req.Context(), "/v1/knn", body)
	if err != nil {
		return wire.WriteError(w, shardErrStatus(err), "knn scatter: %v", err)
	}
	if sreq.K < kreq.K {
		if err := r.topUp(req.Context(), answers, &kreq, sreq.K); err != nil {
			return wire.WriteError(w, shardErrStatus(err), "knn top-up: %v", err)
		}
	}
	multiplier := 0
	for _, a := range answers {
		multiplier = max(multiplier, a.scan.Multiplier)
	}
	return writeMerged(w, answers, kreq.K, &wire.SearchResponse{Refined: kreq.Refine, Multiplier: multiplier})
}

func (r *Router) handleRange(w http.ResponseWriter, req *http.Request) int {
	var rreq wire.RangeRequest
	if err := wire.DecodeBody(w, req, &rreq); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if err := r.validQuery(rreq.Query); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	if rreq.Radius < 0 || math.IsNaN(rreq.Radius) || math.IsInf(rreq.Radius, 0) {
		return wire.WriteError(w, http.StatusBadRequest, "radius must be finite and non-negative")
	}
	if rreq.Radius == 0 {
		return wire.WriteJSON(w, http.StatusOK, &wire.SearchResponse{})
	}
	body, err := json.Marshal(rreq)
	if err != nil {
		return wire.WriteError(w, http.StatusInternalServerError, "encode shard request: %v", err)
	}
	answers, err := r.scatter(req.Context(), "/v1/range", body)
	if err != nil {
		return wire.WriteError(w, shardErrStatus(err), "range scatter: %v", err)
	}
	return writeMerged(w, answers, 0, &wire.SearchResponse{})
}

// handleWrite routes a write to the owning shard's primary. Replicas serve
// copies of the primary's pagefile; writing to one would silently fork the
// partition, so writes never fail over — an unreachable primary is a 503
// the client retries after the operator restores it.
func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request, what string,
	do func(ctx context.Context, m *member, wreq wire.WriteRequest) (*wire.WriteResponse, error)) int {
	var wreq wire.WriteRequest
	if err := wire.DecodeBody(w, req, &wreq); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if err := r.validQuery(wreq.Key); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	owner := r.part.Owner(wreq.Key, wreq.RID)
	primary := r.shards[owner][0]
	r.writes.Add(1)
	r.shardRequests.Add(1)
	start := time.Now()
	resp, err := do(req.Context(), primary, wreq)
	primary.lat.Observe(time.Since(start), err != nil)
	if err != nil {
		primary.noteFailure(err)
		r.writeErrors.Add(1)
		return wire.WriteError(w, shardErrStatus(err), "%s shard %d (%s): %v", what, owner, primary.addr, err)
	}
	primary.noteSuccess()
	primary.served.Add(1)
	return wire.WriteJSON(w, http.StatusOK, resp)
}

func (r *Router) handleInsert(w http.ResponseWriter, req *http.Request) int {
	return r.handleWrite(w, req, "insert",
		func(ctx context.Context, m *member, wreq wire.WriteRequest) (*wire.WriteResponse, error) {
			return m.cli.Insert(ctx, wreq)
		})
}

func (r *Router) handleDelete(w http.ResponseWriter, req *http.Request) int {
	return r.handleWrite(w, req, "delete",
		func(ctx context.Context, m *member, wreq wire.WriteRequest) (*wire.WriteResponse, error) {
			return m.cli.Delete(ctx, wreq)
		})
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether every partition is servable: ready while
// each shard has at least one member not known to be degraded or down.
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if si, ok := r.unservablePartition(); ok {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: shard %d has no healthy member\n", si)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (r *Router) unservablePartition() (int, bool) {
	for si, ms := range r.shards {
		servable := false
		for _, m := range ms {
			if s := m.getState(); s == StateHealthy || s == StateUnknown {
				servable = true
				break
			}
		}
		if !servable {
			return si, true
		}
	}
	return -1, false
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) int {
	return wire.WriteJSON(w, http.StatusOK, r.Stats())
}

// --- stats ---

// MemberStats is one shard member's row in RouterStats.
type MemberStats struct {
	Addr    string `json:"addr"`
	Primary bool   `json:"primary"`
	State   string `json:"state"`
	// Version is the member's build, read from its /v1/stats server
	// section when it last became healthy.
	Version     string                `json:"version,omitempty"`
	Served      int64                 `json:"served"`
	ConsecFails int64                 `json:"consec_fails"`
	LastError   string                `json:"last_error,omitempty"`
	Latency     server.LatencySummary `json:"latency"`
}

// ShardStats is one partition's row in RouterStats.
type ShardStats struct {
	ID      int           `json:"id"`
	Points  int           `json:"points"`
	Members []MemberStats `json:"members"`
}

// FanoutStats counts the router's scatter-gather work.
type FanoutStats struct {
	// Queries is the number of scatter-gathered searches.
	Queries int64 `json:"queries"`
	// ShardRequests is the total member attempts issued, top-ups and their
	// retries and hedges included (≥ Queries × shards).
	ShardRequests int64 `json:"shard_requests"`
	// TopUps counts the shard calls that completed a pushed-down k-NN: a
	// hash shard first asked for about k/s neighbours whose answer could
	// still hold a winner is asked again for the client's k.
	TopUps int64 `json:"top_ups"`
	// Retries counts failure-driven extra attempts, Hedges latency-driven
	// ones, Failovers successes served by a non-primary member.
	Retries   int64 `json:"retries"`
	Hedges    int64 `json:"hedges"`
	Failovers int64 `json:"failovers"`
	// PartitionFailures counts queries failed because some shard had no
	// answering member (the 503 + Retry-After case).
	PartitionFailures int64 `json:"partition_failures"`
	Writes            int64 `json:"writes"`
	WriteErrors       int64 `json:"write_errors"`
}

// ClusterInfo summarizes the cluster the router fronts.
type ClusterInfo struct {
	Shards    int    `json:"shards"`
	Partition string `json:"partition"`
	Method    string `json:"method"`
	Dim       int    `json:"dim"`
	Ready     bool   `json:"ready"`
}

// RouterStats is the router's /v1/stats payload.
type RouterStats struct {
	UptimeSeconds float64                          `json:"uptime_seconds"`
	Requests      int64                            `json:"requests"`
	Server        server.ServerInfo                `json:"server"`
	Cluster       ClusterInfo                      `json:"cluster"`
	Fanout        FanoutStats                      `json:"fanout"`
	Shards        []ShardStats                     `json:"shards"`
	Endpoints     map[string]server.LatencySummary `json:"endpoints"`
}

// Stats snapshots every router counter.
func (r *Router) Stats() RouterStats {
	_, unservable := r.unservablePartition()
	st := RouterStats{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Requests:      r.requests.Load(),
		Server: server.ServerInfo{
			Version:       buildinfo.Version(),
			GoVersion:     buildinfo.GoVersion(),
			UptimeSeconds: time.Since(r.start).Seconds(),
		},
		Cluster: ClusterInfo{
			Shards:    len(r.shards),
			Partition: r.man.Partition,
			Method:    r.man.Method,
			Dim:       r.man.Dim,
			Ready:     !unservable,
		},
		Fanout: FanoutStats{
			Queries:           r.queries.Load(),
			ShardRequests:     r.shardRequests.Load(),
			TopUps:            r.topUps.Load(),
			Retries:           r.retries.Load(),
			Hedges:            r.hedges.Load(),
			Failovers:         r.failovers.Load(),
			PartitionFailures: r.partitionFailures.Load(),
			Writes:            r.writes.Load(),
			WriteErrors:       r.writeErrors.Load(),
		},
		Shards:    make([]ShardStats, len(r.shards)),
		Endpoints: make(map[string]server.LatencySummary, len(r.hists)),
	}
	for si, ms := range r.shards {
		row := ShardStats{ID: si, Points: r.man.Shards[si].Points, Members: make([]MemberStats, len(ms))}
		for mi, m := range ms {
			mrow := MemberStats{
				Addr:        m.addr,
				Primary:     m.primary,
				State:       m.getState().String(),
				Served:      m.served.Load(),
				ConsecFails: m.consecFails.Load(),
				Latency:     m.lat.Summary(),
			}
			if v, ok := m.version.Load().(string); ok {
				mrow.Version = v
			}
			if e, ok := m.lastErr.Load().(string); ok {
				mrow.LastError = e
			}
			row.Members[mi] = mrow
		}
		st.Shards[si] = row
	}
	for name, h := range r.hists {
		st.Endpoints[name] = h.Summary()
	}
	return st
}
