package blobindex

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"blobindex/internal/blobworld"
	"blobindex/internal/geom"
	"blobindex/internal/nn"
	"blobindex/internal/pagefile"
	"blobindex/internal/segment"
)

// SearchRequest is the one request shape behind every facade search: plain
// k-NN and range queries in index space, and the filter-and-refine tier that
// re-ranks index candidates with the full-dimensionality quadratic-form
// distance (paper §2.2's exact pipeline, served from the index's sidecar).
//
// Exactly one of K and Radius selects the query type. With Refine unset,
// Query is an index-space vector (Options.Dim coordinates) and results carry
// Euclidean distances — bit-identical to the pre-request-API SearchKNN and
// SearchRange. With Refine set, Query is a full feature vector (RefineDim
// coordinates, 218 for Blobworld); the index projects it through the
// sidecar's stored SVD reduction for the filter stage and re-ranks the
// candidates by exact quadratic-form distance.
type SearchRequest struct {
	// Query is the query vector: index-space (Options.Dim) normally,
	// full-dimensionality (RefineDim) when Refine is set.
	Query []float64

	// K requests the K nearest neighbors. Mutually exclusive with Radius.
	K int

	// Radius requests all points within the given Euclidean distance in
	// index space. Mutually exclusive with K.
	Radius float64

	// TargetRecall selects the refine tier's candidate multiplier from the
	// offline calibration (blobbench "recall"): the smallest multiplier
	// whose measured recall@200 reached the target. Valid only on refining
	// k-NN requests; 0 means DefaultTargetRecall. Mutually exclusive with
	// Multiplier.
	TargetRecall float64

	// Multiplier overrides the calibrated candidate multiplier directly:
	// the filter stage fetches K × Multiplier candidates. Valid only on
	// refining k-NN requests; 0 means derive it from TargetRecall.
	Multiplier int

	// Refine enables the second stage: candidates from the index are
	// re-ranked by the full-dimensionality quadratic-form distance read
	// from the attached side store (AttachRefine), and the response's
	// distances are exact full-space distances.
	Refine bool
}

// DefaultTargetRecall is the recall target a refining request gets when it
// sets neither TargetRecall nor Multiplier.
const DefaultTargetRecall = 0.99

// refineLadder maps recall targets to the smallest candidate multiplier
// whose measured recall@200 reached the target in the offline calibration
// sweep (blobbench "recall" at the 8000-image/48k-blob artifact scale,
// committed as RECALL_PR6.json: 0.90 -> x3 measured 0.922, 0.95 -> x6
// measured 0.963, 0.99 -> x12 measured 1.000). The same artifact prices the
// rungs, steady state after one untimed pass, over the clustered sidecar:
// x3 1.1 ms, x6 2.0 ms, x12 3.6 ms and x16 4.5 ms per query (filter +
// refine), against 27.6 ms for the brute-force scan the tier replaces. The
// 1.00 rung adds headroom above the smallest multiplier that measured
// perfect recall, since measured recall on the calibration workload is not a
// guarantee. Targets between rungs round up to the next rung; targets above
// the top rung clamp to the top multiplier.
var refineLadder = []struct {
	Recall     float64
	Multiplier int
}{
	{0.90, 3},
	{0.95, 6},
	{0.99, 12},
	{1.00, 16},
}

// MultiplierForRecall returns the calibrated candidate multiplier for a
// recall target — the ladder rung a refining SearchRequest with the given
// TargetRecall would use.
func MultiplierForRecall(target float64) int {
	for _, rung := range refineLadder {
		if rung.Recall >= target {
			return rung.Multiplier
		}
	}
	return refineLadder[len(refineLadder)-1].Multiplier
}

// Validate reports whether the request is well-formed, mirroring
// Options.Validate: every violation wraps ErrInvalidSearchRequest (and
// additionally ErrInvalidRecallTarget for an out-of-range TargetRecall) for
// errors.Is matching. Query dimensionality is checked by Search itself,
// which knows the index's dimensions.
func (r SearchRequest) Validate() error {
	if r.K < 0 {
		return fmt.Errorf("%w: K must not be negative, got %d", ErrInvalidSearchRequest, r.K)
	}
	if r.Radius < 0 || math.IsNaN(r.Radius) {
		return fmt.Errorf("%w: Radius must not be negative, got %v", ErrInvalidSearchRequest, r.Radius)
	}
	if r.K == 0 && r.Radius == 0 {
		return fmt.Errorf("%w: one of K or Radius is required", ErrInvalidSearchRequest)
	}
	if r.K > 0 && r.Radius > 0 {
		return fmt.Errorf("%w: K and Radius are mutually exclusive", ErrInvalidSearchRequest)
	}
	if r.TargetRecall != 0 {
		if !r.Refine {
			return fmt.Errorf("%w: TargetRecall requires Refine", ErrInvalidSearchRequest)
		}
		if r.K == 0 {
			return fmt.Errorf("%w: TargetRecall applies to k-NN requests only", ErrInvalidSearchRequest)
		}
		if math.IsNaN(r.TargetRecall) || r.TargetRecall < 0 || r.TargetRecall > 1 {
			return fmt.Errorf("%w: %w: got %v", ErrInvalidSearchRequest, ErrInvalidRecallTarget, r.TargetRecall)
		}
		if r.Multiplier != 0 {
			return fmt.Errorf("%w: TargetRecall and Multiplier are mutually exclusive", ErrInvalidSearchRequest)
		}
	}
	if r.Multiplier != 0 {
		if r.Multiplier < 1 {
			return fmt.Errorf("%w: Multiplier must be positive, got %d", ErrInvalidSearchRequest, r.Multiplier)
		}
		if !r.Refine {
			return fmt.Errorf("%w: Multiplier requires Refine", ErrInvalidSearchRequest)
		}
		if r.K == 0 {
			return fmt.Errorf("%w: Multiplier applies to k-NN requests only", ErrInvalidSearchRequest)
		}
	}
	return nil
}

// StageStats describes one pipeline stage of a served search.
type StageStats struct {
	// Candidates is the number of candidates the stage handled: results the
	// filter stage produced, candidates the refine stage ranked.
	Candidates int
	// Scored is the number of full features the refine stage read and
	// scored: all Candidates on a range request; on a k-NN request
	// Candidates − Scored candidates were excluded unread, their sidecar
	// pages proven by the quadratic-form lower bound to hold no top-K
	// answer. Zero on the filter stage.
	Scored int
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Pages is the number of distinct sidecar pages the refine stage pinned
	// to read its candidates' features — Pages ÷ Candidates is how well the
	// sidecar's layout clusters a query's candidates (1/records-per-page at
	// best, 1 when every candidate sits on a page of its own). Zero on the
	// filter stage.
	Pages int
}

// SearchResponse carries a search's results and its per-stage accounting.
type SearchResponse struct {
	// Neighbors holds the results, nearest first. On a refined request the
	// distances are full-space quadratic-form distances; otherwise they are
	// index-space Euclidean distances.
	Neighbors []Neighbor

	// Filter describes the candidate-generation stage over the index.
	Filter StageStats

	// Refine describes the full-distance re-ranking stage; zero when the
	// request did not refine.
	Refine StageStats

	// Multiplier is the effective candidate multiplier the filter stage
	// used (1 for non-refining requests).
	Multiplier int

	// Refined reports whether the refine stage ran.
	Refined bool
}

// refineScratch is the pooled per-search scratch of the refine path: the
// projected query, the candidates' sidecar visiting order and the k-NN
// re-rank's page queue and results, reused so a steady-state refined search
// allocates nothing.
type refineScratch struct {
	proj   []float64
	order  []uint64     // per candidate: sidecar slot<<32 | position in the filter results
	slots  []uint32     // order's slots, ascending
	pages  []refinePage // k-NN: the candidates' sidecar pages, best bound first
	scored []nn.Result  // k-NN: the candidates scored so far
	kth    []float64    // k-NN: max-heap of the K smallest scored distances
}

// refinePage is one sidecar page of a refined k-NN search's candidates:
// slots[first:end] live on it, and key is the smallest lower bound of their
// quadratic-form distances.
type refinePage struct {
	key        float64
	first, end int32
}

var refineScratchPool = sync.Pool{New: func() any { return new(refineScratch) }}

// Search answers one SearchRequest. It is the single pipeline every facade
// search funnels through: the request is validated (ErrInvalidSearchRequest,
// ErrInvalidRecallTarget), the query's dimensionality is checked before any
// traversal (ErrDimMismatch), a closed index returns ErrClosed (also when
// Close overtakes the search), an empty index returns ErrEmptyIndex, and ctx
// cancels mid-traversal. A refining request against an index with no side
// store returns ErrNoRefineStore. Safe for any number of concurrent callers
// alongside a single writer.
func (ix *Index) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	return ix.SearchInto(ctx, req, nil)
}

// SearchInto is Search appending the neighbors to dst: with a caller-reused
// dst the steady-state pipeline — validation, projection, traversal, refine
// re-ranking, result conversion — allocates nothing. On error the response's
// Neighbors is dst truncated to its original length; stage stats for stages
// that ran are still filled in.
func (ix *Index) SearchInto(ctx context.Context, req SearchRequest, dst []Neighbor) (SearchResponse, error) {
	resp := SearchResponse{Neighbors: dst}
	if err := req.Validate(); err != nil {
		return resp, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Resolve the query into index space. A refined request carries the
	// full-dimensionality vector and is projected through the sidecar's
	// stored reduction; the projection reproduces the build-time reduction
	// bit for bit, so the filter stage sees exactly the indexed geometry.
	query := req.Query
	var sc *refineScratch
	if req.Refine {
		if ix.side == nil {
			return resp, ErrNoRefineStore
		}
		if len(req.Query) != ix.side.FullDim() {
			return resp, fmt.Errorf("%w: query dimension %d, refine store dimension %d",
				ErrDimMismatch, len(req.Query), ix.side.FullDim())
		}
		sc = refineScratchPool.Get().(*refineScratch)
		defer refineScratchPool.Put(sc)
		sc.proj = ix.side.Project(req.Query, sc.proj[:0])
		query = sc.proj
	}
	if len(query) != ix.opts.Dim {
		return resp, fmt.Errorf("%w: query dimension %d, index dimension %d",
			ErrDimMismatch, len(query), ix.opts.Dim)
	}
	if err := ix.checkLive(); err != nil {
		return resp, err
	}

	// Filter stage: candidate generation in index space. A refining k-NN
	// request over-fetches by the calibrated multiplier so the exact re-rank
	// has enough candidates to recover full-space neighbors the reduced
	// geometry mis-ordered.
	resp.Multiplier = 1
	fetch := req.K
	if req.Refine && req.K > 0 {
		resp.Multiplier = req.Multiplier
		if resp.Multiplier == 0 {
			target := req.TargetRecall
			if target == 0 {
				target = DefaultTargetRecall
			}
			resp.Multiplier = MultiplierForRecall(target)
		}
		fetch = req.K * resp.Multiplier
	}

	// The filter stage fans out over the index's live segments and merges
	// by (Dist2, RID); a single-segment index takes the stack's fast path,
	// which is the exact pre-segmentation one-tree traversal.
	buf := getNNBuf()
	defer putNNBuf(buf)
	start := time.Now()
	var (
		res []nn.Result
		err error
	)
	if req.K > 0 {
		res, err = ix.stack.SearchKNN(ctx, geom.Vector(query), fetch, (*buf)[:0])
	} else {
		res, err = ix.stack.SearchRange(ctx, geom.Vector(query), req.Radius*req.Radius, (*buf)[:0])
	}
	*buf = res
	resp.Filter = StageStats{Candidates: len(res), Duration: time.Since(start)}
	if err != nil {
		return resp, closedErr(err)
	}

	// Refine stage: rank the candidates by the exact quadratic-form distance
	// over their stored full features and keep the top K. Range requests
	// keep their index-space membership but report exact distances in exact
	// order.
	if req.Refine {
		start = time.Now()
		// Visit in sidecar order: records are laid out clustered by index-
		// space position, so sorted by slot the candidates fall into runs on
		// shared pages and each page is pinned once. Scoring happens inside
		// the visit, on a view of the resident page — no feature is copied.
		// Harmless to the response: the full-space selection below re-ranks
		// from scratch and its (Dist2, RID) key is a total order. Every
		// candidate's slot is looked up before any page is read.
		sc.order = sc.order[:0]
		for i := range res {
			slot, ok := ix.side.Slot(res[i].RID)
			if !ok {
				return resp, fmt.Errorf("refine candidate %d: %w", res[i].RID, pagefile.ErrRIDNotFound)
			}
			sc.order = append(sc.order, uint64(slot)<<32|uint64(i))
		}
		slices.Sort(sc.order)
		sc.slots = sc.slots[:0]
		for _, o := range sc.order {
			sc.slots = append(sc.slots, uint32(o>>32))
		}
		candidates := len(res)
		var pages int
		if req.K > 0 {
			res, pages, err = ix.refineKNN(req.Query, res, req.K, sc)
		} else {
			pages, err = ix.side.Visit(sc.slots, func(i int, feat []float64) {
				res[uint32(sc.order[i])].Dist2 = blobworld.QFDist2(req.Query, feat)
			})
		}
		if err != nil {
			return resp, closedErr(fmt.Errorf("refine: %w", err))
		}
		scored := len(res)
		// Keep the K best in (Dist2, RID) order; a range request keeps all.
		keep := len(res)
		if req.K > 0 {
			keep = req.K
		}
		res = nn.TopK(res, keep)
		resp.Refine = StageStats{Candidates: candidates, Scored: scored, Duration: time.Since(start), Pages: pages}
		resp.Refined = true
	}
	resp.Neighbors = appendNeighbors(dst, res)
	return resp, nil
}

// refineKNN scores a refined k-NN search's candidates (res, with sc.order
// and sc.slots their ascending sidecar slots) and returns the ones it
// scored, whose K best in (Dist2, RID) order are exactly the K best of
// scoring every candidate.
//
// It reads only the sidecar pages that can still hold one of them. A
// candidate's lower bound is the reduced-space quadratic form uᵀMu of its
// key's difference from the projected query (blobworld.QFBound); a page's
// key is the smallest bound of its candidates. Pages are visited in
// ascending key order, ties by slot, while kth tracks the K-th smallest
// distance scored so far, and the visit stops at the first page whose key
// is proven greater than it: every candidate left is then strictly farther
// than K scored ones, so it cannot rank, nor tie, into the top K. Each page
// is still pinned once. The proof needs every key to be its feature's
// projection (AttachRefine's precondition).
func (ix *Index) refineKNN(q []float64, res []nn.Result, k int, sc *refineScratch) ([]nn.Result, int, error) {
	perPage := uint32(ix.side.RecordsPerPage())
	sc.pages = sc.pages[:0]
	for j := 0; j < len(sc.slots); {
		first, page, key := j, sc.slots[j]/perPage, math.Inf(1)
		for ; j < len(sc.slots) && sc.slots[j]/perPage == page; j++ {
			b := ix.qfb.Dist2(sc.proj, res[uint32(sc.order[j])].Key)
			if b < key || b != b { // a NaN bound proves nothing: the page keeps NaN
				key = b
			}
		}
		sc.pages = append(sc.pages, refinePage{key: key, first: int32(first), end: int32(j)})
	}
	slices.SortFunc(sc.pages, func(a, b refinePage) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.first, b.first))
	})

	offset := ix.qfb.Offset(q)
	sc.scored, sc.kth = sc.scored[:0], sc.kth[:0]
	pages := 0
	for _, p := range sc.pages {
		if len(sc.kth) == k && ix.qfb.Exceeds(p.key, sc.kth[0], offset) {
			break
		}
		n, err := ix.side.Visit(sc.slots[p.first:p.end], func(i int, feat []float64) {
			r := res[uint32(sc.order[int(p.first)+i])]
			r.Dist2 = blobworld.QFDist2(q, feat)
			sc.scored = append(sc.scored, r)
			sc.offerKth(r.Dist2, k)
		})
		pages += n
		if err != nil {
			return nil, pages, err
		}
	}
	return sc.scored, pages, nil
}

// offerKth adds d to kth, the max-heap of the k smallest distances scored so
// far: once it holds k, kth[0] is the K-th smallest. A NaN is left out — it
// ranks nowhere, so it must not set the threshold.
func (sc *refineScratch) offerKth(d float64, k int) {
	h := sc.kth
	switch {
	case d != d:
		return
	case len(h) < k:
		h = append(h, d)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if h[parent] >= h[i] {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
	case d < h[0]:
		h[0] = d
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] > h[c] {
				c++
			}
			if h[i] >= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	sc.kth = h
}

// checkLive returns ErrClosed for a closed index and ErrEmptyIndex for one
// holding no points. Close empties the stack and marks it closed under one
// lock, and the mark is sticky, so an empty stack that then reports closed
// was emptied by Close.
func (ix *Index) checkLive() error {
	if ix.stack.Len() > 0 {
		return nil
	}
	if ix.stack.Closed() {
		return ErrClosed
	}
	return ErrEmptyIndex
}

// closedErr marks a search error caused by a Close that overtook the search
// — the segment stack or a store's mapping found closed — as ErrClosed,
// keeping the cause in the chain.
func closedErr(err error) error {
	if errors.Is(err, segment.ErrClosed) || errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return err
}
