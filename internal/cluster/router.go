package cluster

import (
	"context"
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
	health *healthTracker

	mux   *http.ServeMux
	start time.Time
	hists map[string]*server.Histogram

	requests          atomic.Int64
	queries           atomic.Int64
	shardRequests     atomic.Int64
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

// shardCall is one search against one member.
type shardCall func(ctx context.Context, m *member) (*wire.SearchResponse, error)

// attempt runs one member attempt, feeding the member's latency histogram
// and passive health signals.
func (r *Router) attempt(ctx context.Context, m *member, call shardCall) (*wire.SearchResponse, error) {
	r.shardRequests.Add(1)
	start := time.Now()
	resp, err := call(ctx, m)
	m.lat.Observe(time.Since(start), err != nil)
	if err != nil {
		m.noteFailure(err)
		return nil, err
	}
	m.noteSuccess()
	m.served.Add(1)
	return resp, nil
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
func (r *Router) callShard(ctx context.Context, si int, call shardCall) (*wire.SearchResponse, error) {
	order := r.memberOrder(si)
	maxAttempts := 1 + r.cfg.Retries
	if maxAttempts > len(order) {
		maxAttempts = len(order)
	}
	type outcome struct {
		m    *member
		resp *wire.SearchResponse
		err  error
	}
	ch := make(chan outcome, maxAttempts)
	launched := 0
	launch := func() {
		m := order[launched]
		launched++
		go func() {
			resp, err := r.attempt(ctx, m, call)
			ch <- outcome{m, resp, err}
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
				return o.resp, nil
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

// scatter fans call out to every shard with bounded concurrency and
// returns every shard's response, or the first shard failure: a k-NN
// answer missing a partition is not an answer, so one dead partition fails
// the query (503 + Retry-After at the handler).
func (r *Router) scatter(ctx context.Context, call shardCall) ([]*wire.SearchResponse, error) {
	r.queries.Add(1)
	n := len(r.shards)
	resps := make([]*wire.SearchResponse, n)
	errs := make([]error, n)
	sem := make(chan struct{}, r.cfg.MaxFanout)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resps[si], errs[si] = r.callShard(ctx, si, call)
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			r.partitionFailures.Add(1)
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return resps, nil
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
	resps, err := r.scatter(req.Context(), func(ctx context.Context, m *member) (*wire.SearchResponse, error) {
		return m.cli.KNN(ctx, kreq)
	})
	if err != nil {
		return wire.WriteError(w, shardErrStatus(err), "knn scatter: %v", err)
	}
	lists := make([][]wire.Neighbor, len(resps))
	multiplier := 0
	for i, resp := range resps {
		lists[i] = resp.Neighbors
		if resp.Multiplier > multiplier {
			multiplier = resp.Multiplier
		}
	}
	return wire.WriteJSON(w, http.StatusOK, &wire.SearchResponse{
		Neighbors:  Merge(lists, kreq.K),
		Refined:    kreq.Refine,
		Multiplier: multiplier,
	})
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
	resps, err := r.scatter(req.Context(), func(ctx context.Context, m *member) (*wire.SearchResponse, error) {
		return m.cli.Range(ctx, rreq)
	})
	if err != nil {
		return wire.WriteError(w, shardErrStatus(err), "range scatter: %v", err)
	}
	lists := make([][]wire.Neighbor, len(resps))
	for i, resp := range resps {
		lists[i] = resp.Neighbors
	}
	return wire.WriteJSON(w, http.StatusOK, &wire.SearchResponse{Neighbors: Merge(lists, 0)})
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
	// ShardRequests is the total member attempts issued (≥ Queries × shards).
	ShardRequests int64 `json:"shard_requests"`
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
