// Package recallbench calibrates the filter-and-refine tier's recall: it
// sweeps candidate multipliers against brute-force exact ground truth and
// derives the TargetRecall -> Multiplier ladder baked into the facade. It
// lives outside internal/experiments because it drives the blobindex facade
// itself, which the experiments package must stay importable from
// (blobindex's test files import experiments).
package recallbench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"blobindex"
	"blobindex/internal/blobworld"
	"blobindex/internal/experiments"
	"blobindex/internal/geom"
)

// RecallParams scales the filter-and-refine recall calibration.
type RecallParams struct {
	// K is the result-set size recall is measured at; the paper retrieves
	// 200 images per query, so the default rung is recall@200.
	K int
	// Queries is how many full-feature queries are averaged per multiplier.
	Queries int
	// Multipliers is the sweep: each entry m makes the filter stage fetch
	// K*m candidates in index space before the exact re-rank.
	Multipliers []int
	// Targets are the recall levels the calibration table resolves to
	// multipliers — the rungs SearchRequest.TargetRecall selects among.
	Targets []float64
	// PoolPages sizes the sidecar's pinning buffer pool.
	PoolPages int
}

// DefaultRecallParams returns the sweep used for RECALL_PR6.json.
func DefaultRecallParams() RecallParams {
	return RecallParams{
		K:           200,
		Queries:     64,
		Multipliers: []int{1, 2, 3, 4, 6, 8, 12, 16},
		Targets:     []float64{0.90, 0.95, 0.99, 1.00},
		PoolPages:   256,
	}
}

// RecallRow is one multiplier's measured quality and cost.
type RecallRow struct {
	Multiplier int `json:"multiplier"`
	// MeanRecall and MinRecall are recall@K against brute-force exact
	// quadratic-form ground truth, averaged (resp. worst-case) over queries.
	MeanRecall float64 `json:"mean_recall"`
	MinRecall  float64 `json:"min_recall"`
	// FilterCandidates is the average candidate count the filter stage
	// produced (capped by the corpus size).
	FilterCandidates float64 `json:"filter_candidates"`
	// FilterMs/RefineMs/TotalMs are average per-query stage times.
	FilterMs float64 `json:"filter_ms"`
	RefineMs float64 `json:"refine_ms"`
	TotalMs  float64 `json:"total_ms"`
}

// RecallRung maps a TargetRecall level to the smallest swept multiplier
// whose measured mean recall reaches it.
type RecallRung struct {
	Target     float64 `json:"target"`
	Multiplier int     `json:"multiplier"`
	// MeasuredRecall is the mean recall the chosen multiplier achieved.
	MeasuredRecall float64 `json:"measured_recall"`
	// Met is false when no swept multiplier reached the target; the rung
	// then reports the best (largest) multiplier instead.
	Met bool `json:"met"`
}

// RecallResult is the full calibration artifact (RECALL_PR6.json).
type RecallResult struct {
	Images  int    `json:"images"`
	Blobs   int    `json:"blobs"`
	Queries int    `json:"queries"`
	K       int    `json:"k"`
	Dim     int    `json:"dim"`
	FullDim int    `json:"full_dim"`
	Method  string `json:"method"`
	// BruteMs is the average per-query cost of the exact scan the refine
	// tier replaces — the yardstick for the filter-and-refine speedup.
	BruteMs     float64      `json:"brute_ms"`
	Rows        []RecallRow  `json:"rows"`
	Calibration []RecallRung `json:"calibration"`
	// Pass reports the acceptance bar: some calibrated rung measured at or
	// above 0.99 recall@K.
	Pass bool `json:"pass"`
}

// Recall measures filter-and-refine recall@K as a function of the candidate
// multiplier, entirely through the public facade: it fits a reducer, builds
// an index over the reduced keys, writes the full features to a temporary
// refine sidecar, attaches it, and sweeps SearchRequest.Multiplier against
// brute-force exact quadratic-form ground truth. The resulting calibration
// table is what TargetRecall's multiplier ladder is derived from.
func Recall(s *experiments.Scenario, p RecallParams) (*RecallResult, error) {
	full := s.Corpus.Features()
	feats := make([][]float64, len(full))
	for i, f := range full {
		feats[i] = f
	}
	n := len(feats)
	if p.K > n {
		p.K = n
	}
	red, err := blobindex.FitReducer(feats, s.Params.Dim)
	if err != nil {
		return nil, err
	}
	pts := make([]blobindex.Point, n)
	for i, f := range feats {
		pts[i] = blobindex.Point{Key: red.Reduce(f), RID: int64(i)}
	}
	ix, err := blobindex.Build(pts, blobindex.Options{
		Method:   blobindex.XJB,
		Dim:      s.Params.Dim,
		PageSize: s.Params.PageSize,
		XJBBites: s.Params.XJBX,
		Seed:     s.Params.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer ix.Close()

	dir, err := os.MkdirTemp("", "blobindex-recall-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	side := filepath.Join(dir, "recall.side")
	rids := make([]int64, n)
	for i := range rids {
		rids[i] = int64(i)
	}
	if err := blobindex.SaveSidecar(side, s.Params.PageSize, red, rids, feats); err != nil {
		return nil, err
	}
	if err := ix.AttachRefine(side, p.PoolPages); err != nil {
		return nil, err
	}

	// Query workload: full features of seeded sample blobs, the same query
	// model the paper's evaluation uses (every query is some blob's feature).
	rng := rand.New(rand.NewSource(s.Params.Seed + 17))
	queries := make([][]float64, p.Queries)
	for i := range queries {
		queries[i] = feats[rng.Intn(n)]
	}

	// Brute-force ground truth: exact QF top-K per query, ties by RID —
	// identical arithmetic and ordering to the refine stage, so a full-
	// coverage multiplier must reach recall 1.0 exactly.
	truth := make([]map[int64]bool, len(queries))
	dist2 := make([]float64, n)
	bruteStart := time.Now()
	order := make([]int, n)
	for qi, q := range queries {
		for i, f := range feats {
			dist2[i] = blobworld.QFDist2(geom.Vector(q), geom.Vector(f))
		}
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if dist2[ia] != dist2[ib] {
				return dist2[ia] < dist2[ib]
			}
			return ia < ib
		})
		top := make(map[int64]bool, p.K)
		for _, i := range order[:p.K] {
			top[int64(i)] = true
		}
		truth[qi] = top
	}
	bruteMs := float64(time.Since(bruteStart).Milliseconds()) / float64(len(queries))

	res := &RecallResult{
		Images:  s.Corpus.Images,
		Blobs:   n,
		Queries: len(queries),
		K:       p.K,
		Dim:     s.Params.Dim,
		FullDim: len(feats[0]),
		Method:  string(blobindex.XJB),
		BruteMs: bruteMs,
	}
	ctx := context.Background()
	for _, m := range p.Multipliers {
		search := func(qi int) (blobindex.SearchResponse, error) {
			resp, err := ix.Search(ctx, blobindex.SearchRequest{
				Query: queries[qi], K: p.K, Refine: true, Multiplier: m,
			})
			if err != nil {
				return resp, fmt.Errorf("recall: multiplier %d query %d: %w", m, qi, err)
			}
			return resp, nil
		}
		// One untimed pass per multiplier first: the stage times are meant as
		// steady state, and the first pass over a multiplier's candidate set
		// pays for cold file pages, an empty sidecar pool and first-use
		// scratch growth (the first row of the sweep most of all).
		for qi := range queries {
			if _, err := search(qi); err != nil {
				return nil, err
			}
		}
		row := RecallRow{Multiplier: m, MinRecall: math.Inf(1)}
		for qi := range queries {
			resp, err := search(qi)
			if err != nil {
				return nil, err
			}
			hit := 0
			for _, nb := range resp.Neighbors {
				if truth[qi][nb.RID] {
					hit++
				}
			}
			r := float64(hit) / float64(p.K)
			row.MeanRecall += r
			row.MinRecall = math.Min(row.MinRecall, r)
			row.FilterCandidates += float64(resp.Filter.Candidates)
			row.FilterMs += resp.Filter.Duration.Seconds() * 1e3
			row.RefineMs += resp.Refine.Duration.Seconds() * 1e3
		}
		nq := float64(len(queries))
		row.MeanRecall /= nq
		row.FilterCandidates /= nq
		row.FilterMs /= nq
		row.RefineMs /= nq
		row.TotalMs = row.FilterMs + row.RefineMs
		res.Rows = append(res.Rows, row)
	}

	// Calibrate: smallest swept multiplier reaching each target, falling
	// back to the largest sweep entry when none does.
	for _, target := range p.Targets {
		rung := RecallRung{Target: target}
		for _, row := range res.Rows {
			if row.MeanRecall >= target {
				rung.Multiplier, rung.MeasuredRecall, rung.Met = row.Multiplier, row.MeanRecall, true
				break
			}
		}
		if !rung.Met && len(res.Rows) > 0 {
			last := res.Rows[len(res.Rows)-1]
			rung.Multiplier, rung.MeasuredRecall = last.Multiplier, last.MeanRecall
		}
		res.Calibration = append(res.Calibration, rung)
		if target >= 0.99 && rung.Met {
			res.Pass = true
		}
	}
	return res, nil
}

// JSON renders the result for the RECALL_PR6.json artifact.
func (r *RecallResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the sweep and calibration as aligned tables.
func (r *RecallResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recall calibration: %d-D filter -> %d-D exact refine, recall@%d over %d queries (%d blobs, %s)\n",
		r.Dim, r.FullDim, r.K, r.Queries, r.Blobs, r.Method)
	fmt.Fprintf(&b, "brute-force exact scan: %.1f ms/query\n", r.BruteMs)
	fmt.Fprintf(&b, "%-6s %9s %9s %10s %9s %9s %9s\n",
		"mult", "recall", "min", "cands", "filter", "refine", "total")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %9.4f %9.4f %10.0f %7.2fms %7.2fms %7.2fms\n",
			row.Multiplier, row.MeanRecall, row.MinRecall, row.FilterCandidates,
			row.FilterMs, row.RefineMs, row.TotalMs)
	}
	b.WriteString("calibrated ladder (TargetRecall -> Multiplier):\n")
	for _, rung := range r.Calibration {
		met := ""
		if !rung.Met {
			met = "  (target not reached in sweep)"
		}
		fmt.Fprintf(&b, "  >= %.2f -> x%-3d (measured %.4f)%s\n",
			rung.Target, rung.Multiplier, rung.MeasuredRecall, met)
	}
	if r.Pass {
		fmt.Fprintf(&b, "PASS: recall@%d >= 0.99 at a calibrated multiplier", r.K)
	} else {
		fmt.Fprintf(&b, "FAIL: no swept multiplier reached recall@%d >= 0.99", r.K)
	}
	return b.String()
}
