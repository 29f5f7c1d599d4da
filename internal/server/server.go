// Package server is the network serving layer over the blobindex facade:
// the machinery that turns the in-process index into the query service the
// Blobworld site actually ran. It exposes exact k-NN and range search over
// HTTP/JSON and layers production concerns the index itself should not know
// about — admission control (bounded in-flight searches with a bounded,
// timed waiting room), single-flight coalescing of identical concurrent
// queries, a sharded LRU result cache invalidated on writes, and
// per-endpoint latency histograms — in that order: a request is admitted,
// then coalesced, then served from cache, and only then runs an index
// traversal. The cache holds encoded responses, so a hit copies bytes. The
// protocol itself (types, encoder, HTTP plumbing) is internal/wire's. See
// DESIGN.md §8.
//
// The package serves any Queryer; cmd/blobserved wires it to a
// *blobindex.Index opened demand-paged from a saved index file.
package server

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blobindex"
	"blobindex/internal/buildinfo"
	"blobindex/internal/wire"
)

// Queryer is the slice of the blobindex facade the server needs.
// *blobindex.Index implements it; tests substitute controllable fakes.
// Every search funnels through the unified Search(ctx, SearchRequest)
// entry point, so the server sees per-stage counts and timings on each
// response.
type Queryer interface {
	Search(ctx context.Context, req blobindex.SearchRequest) (blobindex.SearchResponse, error)
	Insert(p blobindex.Point) error
	Delete(key []float64, rid int64) (bool, error)
	Tighten() error
	Options() blobindex.Options
	Stats() blobindex.Stats
	BufferStats() (blobindex.BufferStats, bool)
	RefineDim() (int, bool)
	RefineStats() (blobindex.BufferStats, bool)
}

var _ Queryer = (*blobindex.Index)(nil)

// The online-ingest surface is optional: the server discovers it by type
// assertion so Queryer (and every test fake implementing it) is untouched.
// *blobindex.Index implements all three; a fake that wants the segments
// stats section or reorg-driven cache invalidation opts in per interface.
type ingestStatser interface {
	IngestStats() (blobindex.IngestStats, bool)
}

type segmentLister interface {
	SegmentInfos() []blobindex.SegmentInfo
}

type reorgNotifier interface {
	// SetReorgHook registers a callback run after every background segment
	// reorganization (seal, compaction) — writes the server did not make
	// itself but that advance the index state its cache snapshots.
	SetReorgHook(fn func())
}

// compactor is the optional maintenance surface behind POST /v1/compact: an
// online index can be told to seal its active segment and compact what's
// pending, on demand rather than waiting for the background threshold. A
// chaos harness leans on this to line a kill -9 up with an in-flight save.
type compactor interface {
	SealActive() error
	CompactPending() error
}

var (
	_ ingestStatser = (*blobindex.Index)(nil)
	_ segmentLister = (*blobindex.Index)(nil)
	_ reorgNotifier = (*blobindex.Index)(nil)
	_ compactor     = (*blobindex.Index)(nil)
)

// Config sizes the serving machinery. The zero value of every field except
// Index picks a sensible default.
type Config struct {
	// Index is the index to serve. Required.
	Index Queryer
	// MaxInFlight bounds concurrently executing searches. Default
	// 2×GOMAXPROCS — enough to keep every core busy while some requests
	// block on page I/O.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; one past that
	// is rejected 429 immediately. Default 4×MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits before a 503.
	// Default 1s.
	QueueTimeout time.Duration
	// CacheEntries is the result cache's total entry budget. Default 4096;
	// negative disables caching.
	CacheEntries int
	// CacheShards is the result cache's shard count. Default 16.
	CacheShards int
	// MaxK caps the per-request k. Default 4096.
	MaxK int
	// ReadyWindow is the sliding window over which storage error rates are
	// measured for the /readyz probe. Default 30s.
	ReadyWindow time.Duration
	// ReadyErrorRate is the windowed storage error rate at or above which
	// /readyz reports 503 (degraded). Default 0.5.
	ReadyErrorRate float64
	// ReadyMinSamples is the minimum number of windowed index operations
	// before /readyz may flip to degraded; below it the server is always
	// ready. Default 16.
	ReadyMinSamples int
}

// endpoint names, which are also the keys of Stats.Endpoints.
var endpointNames = []string{"knn", "range", "insert", "delete", "tighten", "compact", "stats"}

// Server serves one index over HTTP. Create with New, mount Handler.
type Server struct {
	cfg    Config
	idx    Queryer
	method blobindex.Method
	dim    int
	// refineDim is the full feature dimensionality of the index's refine
	// store, 0 when none is attached at startup. Refining requests must
	// carry refineDim-coordinate queries.
	refineDim int

	// Per-stage pipeline accounting for /v1/stats: one histogram and a
	// cumulative candidate counter per search stage. Filter counts every
	// index traversal; refine counts only refined ones.
	filterHist       *histogram
	refineHist       *histogram
	filterCandidates atomic.Int64
	refineCandidates atomic.Int64
	refinePages      atomic.Int64
	refineScored     atomic.Int64

	adm     *admission
	cache   *resultCache
	flights *flightGroup
	writeMu sync.Mutex // serializes Insert/Delete/Tighten (single-writer contract)

	// Degraded-mode accounting: the windowed gauge behind /readyz plus
	// lifetime counters by storage failure class.
	health           *storageHealth
	storageTransient atomic.Int64
	storageCorrupt   atomic.Int64

	mux      *http.ServeMux
	start    time.Time
	requests atomic.Int64
	hists    map[string]*histogram
}

// expvar integration: the package publishes one "blobserved" var whose
// value tracks the most recently created Server, so `GET /debug/vars` (and
// any other expvar consumer) sees live serving stats. A process serves one
// index in practice; tests creating many servers just move the pointer.
var (
	expvarOnce sync.Once
	currentSrv atomic.Pointer[Server]
)

// New builds a Server around cfg.Index.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, errors.New("server: Config.Index is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = time.Second
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = 16
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 4096
	}
	if cfg.ReadyWindow <= 0 {
		cfg.ReadyWindow = 30 * time.Second
	}
	if cfg.ReadyErrorRate <= 0 || cfg.ReadyErrorRate > 1 {
		cfg.ReadyErrorRate = 0.5
	}
	if cfg.ReadyMinSamples <= 0 {
		cfg.ReadyMinSamples = 16
	}
	opts := cfg.Index.Options()
	s := &Server{
		cfg:        cfg,
		idx:        cfg.Index,
		method:     opts.Method,
		dim:        opts.Dim,
		adm:        newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout),
		cache:      newResultCache(cfg.CacheEntries, cfg.CacheShards),
		flights:    newFlightGroup(),
		health:     newStorageHealth(cfg.ReadyWindow, cfg.ReadyErrorRate, int64(cfg.ReadyMinSamples)),
		start:      time.Now(),
		hists:      make(map[string]*histogram, len(endpointNames)),
		filterHist: &histogram{},
		refineHist: &histogram{},
	}
	if rd, ok := cfg.Index.RefineDim(); ok {
		s.refineDim = rd
	}
	// An online index compacts in the background: a seal or compaction swaps
	// segments underneath the result cache exactly like a write would, so it
	// must advance the cache generation the same way the write handlers do.
	if rn, ok := cfg.Index.(reorgNotifier); ok {
		rn.SetReorgHook(func() { s.cache.invalidate() })
	}
	for _, name := range endpointNames {
		s.hists[name] = &histogram{}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/knn", s.instrument("knn", s.handleKNN))
	s.mux.HandleFunc("POST /v1/range", s.instrument("range", s.handleRange))
	s.mux.HandleFunc("POST /v1/insert", s.instrument("insert", s.handleInsert))
	s.mux.HandleFunc("POST /v1/delete", s.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("POST /v1/tighten", s.instrument("tighten", s.handleTighten))
	s.mux.HandleFunc("POST /v1/compact", s.instrument("compact", s.handleCompact))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())

	currentSrv.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("blobserved", expvar.Func(func() any {
			if cur := currentSrv.Load(); cur != nil {
				return cur.Stats()
			}
			return nil
		}))
	})
	return s, nil
}

// Handler returns the server's HTTP handler (mount at /).
func (s *Server) Handler() http.Handler { return s.mux }

// --- handler plumbing ---

// instrument wraps a handler to count the request and record its latency
// (and error-ness) in the endpoint's histogram.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	hist := s.hists[name]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		start := time.Now()
		status := h(w, r)
		hist.observe(time.Since(start), status >= 400)
	}
}

func (s *Server) validQuery(q []float64) error {
	return s.validQueryDim(q, s.dim, "index")
}

func (s *Server) validQueryDim(q []float64, dim int, what string) error {
	if len(q) != dim {
		return fmt.Errorf("query dimension %d, %s dimension %d", len(q), what, dim)
	}
	for _, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("query coordinates must be finite")
		}
	}
	return nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// searchStatus maps a search or write error to an HTTP status. The storage
// failure classes carry the degraded-mode contract: a transient read failure
// is the client's cue to retry (503 + Retry-After), while corruption is a
// permanent fault of this replica's on-disk index (500).
func searchStatus(err error) int {
	switch {
	case errors.Is(err, blobindex.ErrDimMismatch),
		errors.Is(err, blobindex.ErrInvalidSearchRequest):
		return http.StatusBadRequest
	case errors.Is(err, blobindex.ErrNoRefineStore):
		// The deployment has no full-feature sidecar; refine is not served
		// here, and retrying the same replica cannot help.
		return http.StatusNotImplemented
	case errors.Is(err, blobindex.ErrClosed):
		// The index was closed under the request (shutdown, or a swap in
		// progress): this replica cannot serve it now, another may.
		return http.StatusServiceUnavailable
	case errors.Is(err, blobindex.ErrEmptyIndex):
		return http.StatusNotFound
	case errors.Is(err, blobindex.ErrStorageTransient):
		return http.StatusServiceUnavailable
	case errors.Is(err, blobindex.ErrStorageCorrupt):
		return http.StatusInternalServerError
	case isCtxErr(err):
		// The client went away (or the drain deadline passed); the status
		// rarely reaches anyone, but 503 is the honest one.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// recordStorage feeds the readiness gauge with an index operation's outcome.
// Only outcomes that say something about the store count: success, transient
// read failure, corruption. Validation and context errors are the client's
// problem, not the storage engine's.
func (s *Server) recordStorage(err error) {
	switch {
	case err == nil:
		s.health.record(true)
	case errors.Is(err, blobindex.ErrStorageTransient):
		s.storageTransient.Add(1)
		s.health.record(false)
	case errors.Is(err, blobindex.ErrStorageCorrupt):
		s.storageCorrupt.Add(1)
		s.health.record(false)
	}
}

// recordStages feeds the per-stage pipeline metrics from one index
// traversal's response. Called only for searches that actually ran — cache
// hits and coalesced followers never touched the index.
func (s *Server) recordStages(resp blobindex.SearchResponse) {
	s.filterHist.observe(resp.Filter.Duration, false)
	s.filterCandidates.Add(int64(resp.Filter.Candidates))
	if resp.Refined {
		s.refineHist.observe(resp.Refine.Duration, false)
		s.refineCandidates.Add(int64(resp.Refine.Candidates))
		s.refinePages.Add(int64(resp.Refine.Pages))
		s.refineScored.Add(int64(resp.Refine.Scored))
	}
}

// runSearch is the shared admitted→coalesced→cached→index pipeline behind
// the two search endpoints. It answers with the response's encoded
// neighbours array: the flight leader encodes once, and the cache and every
// follower share those bytes.
func (s *Server) runSearch(ctx context.Context, req blobindex.SearchRequest, includeKeys bool) (neighbors []byte, cached, coalesced bool, err error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, false, false, err
	}
	defer s.adm.release()
	key := searchKey(s.method, req, includeKeys)
	// Leader flights check the cache and fill it on success; hit is set by
	// the flight that actually ran (followers inherit the leader's result,
	// reported as coalesced rather than cached).
	var hit bool
	fn := func() ([]byte, error) {
		if v, ok := s.cache.get(key); ok {
			hit = true
			return v, nil
		}
		// Snapshot the write generation before the traversal: a result that
		// raced an Insert/Delete/Tighten is stamped pre-write and dropped,
		// never cached as fresh.
		gen := s.cache.generation()
		resp, err := s.idx.Search(ctx, req)
		// Feed the readiness gauge once per index traversal: followers share
		// the leader's outcome and cache hits never touched storage. An
		// answer that then fails to encode was still a successful search.
		s.recordStorage(err)
		if err != nil {
			return nil, err
		}
		s.recordStages(resp)
		v, err := encodeNeighbors(resp.Neighbors, includeKeys)
		if err != nil {
			return nil, err // never cached: a repeat fails the same way
		}
		s.cache.put(key, v, gen)
		return v, nil
	}
	for attempt := 0; ; attempt++ {
		hit = false
		neighbors, coalesced, err = s.flights.do(ctx, key, fn)
		// A coalesced context error is the *leader's* — its client hung up
		// mid-search. This request is still live, so rerun the flight as
		// the new leader instead of failing an innocent caller.
		if err != nil && coalesced && isCtxErr(err) && ctx.Err() == nil && attempt < 2 {
			continue
		}
		return neighbors, hit && !coalesced, coalesced, err
	}
}

// encodePool recycles the flight leaders' encode buffers.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// encodeNeighbors encodes a search's neighbours array into a pooled buffer
// and returns an exact-size copy: the value the cache holds and every
// follower shares.
func encodeNeighbors(ns []blobindex.Neighbor, includeKeys bool) ([]byte, error) {
	buf := encodePool.Get().(*[]byte)
	defer encodePool.Put(buf)
	b, err := wire.AppendNeighbors((*buf)[:0], ns, includeKeys)
	if err != nil {
		return nil, err
	}
	*buf = b
	return bytes.Clone(b), nil
}

func admissionStatus(err error) (int, bool) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, true
	case errors.Is(err, ErrQueueTimeout):
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}

// --- endpoints ---

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) int {
	var req wire.KNNRequest
	if err := wire.DecodeBody(w, r, &req); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if req.Refine {
		if s.refineDim == 0 {
			return wire.WriteError(w, http.StatusNotImplemented, "refine not available: no full-feature store attached")
		}
		if err := s.validQueryDim(req.Query, s.refineDim, "refine store"); err != nil {
			return wire.WriteError(w, http.StatusBadRequest, "%v", err)
		}
	} else if err := s.validQuery(req.Query); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	if req.K <= 0 || req.K > s.cfg.MaxK {
		return wire.WriteError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", s.cfg.MaxK, req.K)
	}
	sreq := blobindex.SearchRequest{
		Query:        req.Query,
		K:            req.K,
		Refine:       req.Refine,
		TargetRecall: req.TargetRecall,
		Multiplier:   req.Multiplier,
	}
	if err := sreq.Validate(); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	// Resolve the effective multiplier up front: two requests asking for the
	// same ladder rung by different knobs (target_recall vs multiplier) run
	// the identical search, and the cache and single-flight keys must agree.
	multiplier := 0
	if req.Refine {
		multiplier = req.Multiplier
		if multiplier == 0 {
			target := req.TargetRecall
			if target == 0 {
				target = blobindex.DefaultTargetRecall
			}
			multiplier = blobindex.MultiplierForRecall(target)
		}
		sreq.Multiplier, sreq.TargetRecall = multiplier, 0
	}
	neighbors, cached, coalesced, err := s.runSearch(r.Context(), sreq, req.IncludeKeys)
	if err != nil {
		if status, ok := admissionStatus(err); ok {
			return wire.WriteError(w, status, "%v", err)
		}
		return wire.WriteError(w, searchStatus(err), "knn search: %v", err)
	}
	return wire.WriteSearch(w, neighbors, &wire.SearchResponse{
		Refined:    req.Refine,
		Multiplier: multiplier,
		Cached:     cached,
		Coalesced:  coalesced,
	})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) int {
	var req wire.RangeRequest
	if err := wire.DecodeBody(w, r, &req); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if err := s.validQuery(req.Query); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	if req.Radius < 0 || math.IsNaN(req.Radius) || math.IsInf(req.Radius, 0) {
		return wire.WriteError(w, http.StatusBadRequest, "radius must be finite and non-negative")
	}
	if req.Radius == 0 {
		// The unified pipeline treats a zero radius as "no operation
		// selected"; serve the always-empty result without a traversal.
		return wire.WriteJSON(w, http.StatusOK, &wire.SearchResponse{})
	}
	sreq := blobindex.SearchRequest{Query: req.Query, Radius: req.Radius}
	neighbors, cached, coalesced, err := s.runSearch(r.Context(), sreq, req.IncludeKeys)
	if err != nil {
		if status, ok := admissionStatus(err); ok {
			return wire.WriteError(w, status, "%v", err)
		}
		return wire.WriteError(w, searchStatus(err), "range search: %v", err)
	}
	return wire.WriteSearch(w, neighbors, &wire.SearchResponse{Cached: cached, Coalesced: coalesced})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) int {
	var req wire.WriteRequest
	if err := wire.DecodeBody(w, r, &req); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if err := s.validQuery(req.Key); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	s.writeMu.Lock()
	err := s.idx.Insert(blobindex.Point{Key: req.Key, RID: req.RID})
	s.writeMu.Unlock()
	s.recordStorage(err)
	if err != nil {
		return wire.WriteError(w, searchStatus(err), "insert: %v", err)
	}
	s.cache.invalidate()
	return wire.WriteJSON(w, http.StatusOK, wire.WriteResponse{OK: true})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) int {
	var req wire.WriteRequest
	if err := wire.DecodeBody(w, r, &req); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if err := s.validQuery(req.Key); err != nil {
		return wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	s.writeMu.Lock()
	existed, err := s.idx.Delete(req.Key, req.RID)
	s.writeMu.Unlock()
	s.recordStorage(err)
	if err != nil {
		return wire.WriteError(w, searchStatus(err), "delete: %v", err)
	}
	s.cache.invalidate()
	return wire.WriteJSON(w, http.StatusOK, wire.WriteResponse{OK: true, Existed: existed})
}

func (s *Server) handleTighten(w http.ResponseWriter, r *http.Request) int {
	s.writeMu.Lock()
	err := s.idx.Tighten()
	s.writeMu.Unlock()
	s.recordStorage(err)
	if err != nil {
		return wire.WriteError(w, searchStatus(err), "tighten: %v", err)
	}
	s.cache.invalidate()
	return wire.WriteJSON(w, http.StatusOK, wire.WriteResponse{OK: true})
}

// handleCompact seals the active segment and compacts every pending one, on
// demand. 501 when the served index has no online-ingest layer: retrying the
// same replica cannot help, exactly like refine without a sidecar.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) int {
	c, ok := s.idx.(compactor)
	if !ok {
		return wire.WriteError(w, http.StatusNotImplemented, "compact not available: index has no maintenance surface")
	}
	err := c.SealActive()
	if err == nil {
		err = c.CompactPending()
	}
	if errors.Is(err, blobindex.ErrNotOnline) {
		return wire.WriteError(w, http.StatusNotImplemented, "compact: %v", err)
	}
	s.recordStorage(err)
	if err != nil {
		return wire.WriteError(w, searchStatus(err), "compact: %v", err)
	}
	// The reorg hook already advanced the cache generation for the swap, but
	// invalidate here too so a compactor without a hook stays correct.
	s.cache.invalidate()
	return wire.WriteJSON(w, http.StatusOK, wire.WriteResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) int {
	return wire.WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 200 while the windowed storage error
// rate is below the configured threshold, 503 + Retry-After once it crosses
// it. Load balancers poll this to stop routing to a replica whose disk is
// failing; /healthz stays 200 so the process is not restarted for it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rate, samples, ready := s.health.snapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: storage error rate %.2f over %d ops in the last %s\n",
			rate, samples, s.cfg.ReadyWindow)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// --- stats ---

// IndexInfo is the index section of Stats.
type IndexInfo struct {
	Method string `json:"method"`
	Dim    int    `json:"dim"`
	Len    int    `json:"len"`
	Height int    `json:"height"`
	Pages  int    `json:"pages"`
	Leaves int    `json:"leaves"`
}

// BufferInfo mirrors blobindex.BufferStats for demand-paged indexes; nil in
// Stats when the served index is fully in memory.
type BufferInfo struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Retries   int64 `json:"retries"`
	GaveUp    int64 `json:"gave_up"`
	Resident  int   `json:"resident"`
	Capacity  int   `json:"capacity"`
}

// bufferInfo converts the facade's counters to the stats wire shape.
func bufferInfo(bs blobindex.BufferStats) *BufferInfo {
	return &BufferInfo{
		Hits:      bs.Hits,
		Misses:    bs.Misses,
		Evictions: bs.Evictions,
		Retries:   bs.Retries,
		GaveUp:    bs.GaveUp,
		Resident:  bs.Resident,
		Capacity:  bs.Capacity,
	}
}

// StorageStats is the degraded-mode section of Stats: lifetime failure
// counters by class plus the windowed gauge /readyz decides on.
type StorageStats struct {
	TransientErrors int64   `json:"transient_errors"`
	CorruptErrors   int64   `json:"corrupt_errors"`
	WindowErrorRate float64 `json:"window_error_rate"`
	WindowSamples   int64   `json:"window_samples"`
	Ready           bool    `json:"ready"`
}

// SegmentJSON is one live segment's row in the segments stats section.
type SegmentJSON struct {
	Gen       uint64 `json:"gen"`
	Len       int    `json:"len"`
	Pages     int    `json:"pages"`
	SizeBytes int64  `json:"size_bytes"`
	Mutable   bool   `json:"mutable"`
}

// SegmentsStats is the online-ingest section of Stats: the live segment
// stack, the delete tombstones masking it, and the write-ahead log's depth
// — present only when the served index is online (CreateOnline/OpenOnline).
type SegmentsStats struct {
	Count           int           `json:"count"`
	Tombstones      int           `json:"tombstones"`
	ActiveGen       uint64        `json:"active_gen"`
	WALDepth        int64         `json:"wal_depth"`
	WALBytes        int64         `json:"wal_bytes"`
	Pending         int           `json:"pending"`
	Seals           uint64        `json:"seals"`
	Compactions     uint64        `json:"compactions"`
	FullCompactions uint64        `json:"full_compactions"`
	Appends         int64         `json:"appends"`
	Segments        []SegmentJSON `json:"segments"`
}

// StageInfo is one search-pipeline stage's row in Stats: how many index
// traversals ran the stage, the cumulative candidates it produced, and its
// latency distribution. Filter covers every traversal (candidate generation
// in index space); Refine covers only refined searches (full-distance
// re-ranking), and also counts the distinct sidecar pages those searches
// pinned: Pages ÷ Searches is a refined query's page set, Pages ÷ Candidates
// how well the sidecar's layout clusters it. Refine's Scored counts the full
// features read and scored; Candidates − Scored were excluded unread by the
// quadratic-form lower bound (refined k-NN only).
type StageInfo struct {
	Searches   int64          `json:"searches"`
	Candidates int64          `json:"candidates"`
	Pages      int64          `json:"pages,omitempty"`
	Scored     int64          `json:"scored,omitempty"`
	Latency    LatencySummary `json:"latency"`
}

// ServerInfo is the "server" section of Stats: which build this process is
// and how long it has been up. A cluster router's health tracker reads it to
// report what each shard member is actually running.
type ServerInfo struct {
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats is the full /v1/stats payload.
type Stats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Requests      int64          `json:"requests"`
	Server        ServerInfo     `json:"server"`
	Index         IndexInfo      `json:"index"`
	Admission     AdmissionStats `json:"admission"`
	Cache         CacheStats     `json:"cache"`
	Coalesce      CoalesceStats  `json:"coalesce"`
	Storage       StorageStats   `json:"storage"`
	Buffer        *BufferInfo    `json:"buffer,omitempty"`
	// Segments is the online-ingest view (segment stack, tombstones, WAL
	// depth); nil when the served index is not online.
	Segments *SegmentsStats `json:"segments,omitempty"`
	// Stages breaks served index traversals into the search pipeline's
	// filter and refine stages.
	Stages map[string]StageInfo `json:"stages"`
	// RefineBuffer is the refine store's demand-paging traffic; nil when no
	// full-feature sidecar is attached.
	RefineBuffer *BufferInfo               `json:"refine_buffer,omitempty"`
	Endpoints    map[string]LatencySummary `json:"endpoints"`
}

// Stats snapshots every serving counter. Also the value behind the
// "blobserved" expvar.
func (s *Server) Stats() Stats {
	is := s.idx.Stats()
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Server: ServerInfo{
			Version:       buildinfo.Version(),
			GoVersion:     buildinfo.GoVersion(),
			UptimeSeconds: time.Since(s.start).Seconds(),
		},
		Index: IndexInfo{
			Method: string(is.Method),
			Dim:    s.dim,
			Len:    is.Len,
			Height: is.Height,
			Pages:  is.Pages,
			Leaves: is.Leaves,
		},
		Admission: s.adm.stats(),
		Cache:     s.cache.stats(),
		Coalesce:  s.flights.stats(),
		Endpoints: make(map[string]LatencySummary, len(s.hists)),
	}
	rate, samples, ready := s.health.snapshot()
	st.Storage = StorageStats{
		TransientErrors: s.storageTransient.Load(),
		CorruptErrors:   s.storageCorrupt.Load(),
		WindowErrorRate: rate,
		WindowSamples:   samples,
		Ready:           ready,
	}
	if bs, ok := s.idx.BufferStats(); ok {
		st.Buffer = bufferInfo(bs)
	}
	if ig, ok := s.idx.(ingestStatser); ok {
		if snap, online := ig.IngestStats(); online {
			seg := &SegmentsStats{
				Tombstones:      snap.Tombstones,
				ActiveGen:       snap.ActiveGen,
				WALDepth:        snap.WALDepth,
				WALBytes:        snap.WALBytes,
				Pending:         snap.PendingSegments,
				Seals:           snap.Seals,
				Compactions:     snap.Compactions,
				FullCompactions: snap.FullCompactions,
				Appends:         snap.Appends,
			}
			if sl, ok := s.idx.(segmentLister); ok {
				infos := sl.SegmentInfos()
				seg.Count = len(infos)
				seg.Segments = make([]SegmentJSON, len(infos))
				for i, si := range infos {
					seg.Segments[i] = SegmentJSON(si)
				}
			}
			st.Segments = seg
		}
	}
	filter := s.filterHist.summary()
	refine := s.refineHist.summary()
	st.Stages = map[string]StageInfo{
		"filter": {Searches: filter.Count, Candidates: s.filterCandidates.Load(), Latency: filter},
		"refine": {Searches: refine.Count, Candidates: s.refineCandidates.Load(), Pages: s.refinePages.Load(),
			Scored: s.refineScored.Load(), Latency: refine},
	}
	if rs, ok := s.idx.RefineStats(); ok {
		st.RefineBuffer = bufferInfo(rs)
	}
	for name, h := range s.hists {
		st.Endpoints[name] = h.summary()
	}
	return st
}
