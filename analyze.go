package blobindex

import (
	"context"
	"sort"

	"blobindex/internal/amdb"
	"blobindex/internal/geom"
)

// Query is one workload query for Analyze: the k nearest neighbors of
// Center.
type Query struct {
	Center []float64
	K      int
}

// ExecutionMode selects how analyzed queries execute (see the paper's §5
// and internal/amdb for details).
type ExecutionMode int

const (
	// ModeSphere (default) runs each query as one range query at its true
	// k-th-neighbor radius — the paper's analytical "expanding sphere"
	// model, with an identical sphere for every access method.
	ModeSphere ExecutionMode = iota
	// ModeBestFirst runs the exact, I/O-optimal best-first search.
	ModeBestFirst
	// ModeExpanding runs the full system behavior: probe, then expanding
	// range queries until the sphere holds k points.
	ModeExpanding
	// ModeHarvest runs the approximate "quick and dirty" candidate harvest
	// of the production Blobworld pipeline (§2.3).
	ModeHarvest
)

// AnalyzeOptions tunes the workload analysis.
type AnalyzeOptions struct {
	// TargetUtil is the target page utilization for utilization loss, in
	// (0, 1]. Default 0.8.
	TargetUtil float64
	// Mode selects query execution. Default ModeSphere.
	Mode ExecutionMode
	// SkipOptimal disables the optimal-clustering baseline (clustering
	// loss and optimal I/Os report zero), trading fidelity for speed.
	SkipOptimal bool
	// Seed drives the hypergraph partitioner computing the baseline.
	Seed int64
	// Parallelism caps the query-execution worker pool: 0 means
	// GOMAXPROCS, 1 runs sequentially. Metrics are identical for every
	// value.
	Parallelism int
}

// Analysis reports the amdb performance metrics of a workload execution:
// per-query leaf I/Os decomposed into the paper's three losses against an
// idealized tree (Table 1 of the paper).
type Analysis struct {
	Method  Method
	Queries int
	Height  int
	Pages   int
	Leaves  int

	LeafIOs  int
	InnerIOs int
	TotalIOs int

	// The loss decomposition, in leaf I/Os:
	// LeafIOs = OptimalIOs + ClusteringLoss + UtilizationLoss + ExcessCoverageLoss.
	ExcessCoverageLoss float64
	UtilizationLoss    float64
	ClusteringLoss     float64
	OptimalIOs         float64

	// AvgLeafIOsPerQuery is the mean leaf reads per query.
	AvgLeafIOsPerQuery float64
	// PagesHitFraction is the mean fraction of the index's pages one query
	// touches (the paper's "one in 50" check, §6).
	PagesHitFraction float64

	// LeafProfiles lists every leaf's workload profile, most empty-read
	// afflicted first — the per-node view amdb's GUI visualizes.
	LeafProfiles []LeafProfile
}

// LeafProfile aggregates one leaf page's accesses over the workload.
type LeafProfile struct {
	Page          int64
	Accesses      int
	EmptyAccesses int     // accesses that contributed no results
	Utilization   float64 // fill fraction of the leaf
}

// Analyze executes the workload against the index and computes the amdb
// loss metrics. The index is not modified.
func (ix *Index) Analyze(queries []Query, opts AnalyzeOptions) (*Analysis, error) {
	return ix.AnalyzeCtx(context.Background(), queries, opts)
}

// AnalyzeCtx is Analyze honoring cancellation: ctx is checked once per
// index page read, and the first context error aborts the remaining
// queries and is returned. Safe to run concurrently with searches; the
// index is not modified. It needs a one-segment index; see ErrMultiSegment.
func (ix *Index) AnalyzeCtx(ctx context.Context, queries []Query, opts AnalyzeOptions) (*Analysis, error) {
	seg, ok := ix.stack.Only()
	if !ok {
		return nil, ErrMultiSegment
	}
	tree := seg.Tree()
	qs := make([]amdb.Query, len(queries))
	for i, q := range queries {
		qs[i] = amdb.Query{Center: geom.Vector(q.Center), K: q.K}
	}
	rep, err := amdb.AnalyzeCtx(ctx, tree, qs, amdb.Config{
		TargetUtil:  opts.TargetUtil,
		Seed:        opts.Seed,
		SkipOptimal: opts.SkipOptimal,
		Mode:        amdb.SearchMode(opts.Mode),
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	profiles := make([]LeafProfile, 0, len(rep.Nodes))
	for pid, np := range rep.Nodes {
		profiles = append(profiles, LeafProfile{
			Page:          int64(pid),
			Accesses:      np.Accesses,
			EmptyAccesses: np.EmptyAccesses,
			Utilization:   np.Utilization,
		})
	}
	sort.Slice(profiles, func(i, j int) bool {
		if profiles[i].EmptyAccesses != profiles[j].EmptyAccesses {
			return profiles[i].EmptyAccesses > profiles[j].EmptyAccesses
		}
		return profiles[i].Page < profiles[j].Page
	})
	return &Analysis{
		Method:             ix.opts.Method,
		Queries:            rep.Totals.Queries,
		Height:             rep.TreeHeight,
		Pages:              rep.NumPages,
		Leaves:             rep.NumLeaves,
		LeafIOs:            rep.Totals.LeafIOs,
		InnerIOs:           rep.Totals.InnerIOs,
		TotalIOs:           rep.Totals.TotalIOs(),
		ExcessCoverageLoss: rep.Totals.ExcessLoss,
		UtilizationLoss:    rep.Totals.UtilLoss,
		ClusteringLoss:     rep.Totals.ClusterLoss,
		OptimalIOs:         rep.Totals.OptimalIOs,
		AvgLeafIOsPerQuery: rep.AvgLeafIOsPerQuery(),
		PagesHitFraction:   rep.PagesHitFraction(),
		LeafProfiles:       profiles,
	}, nil
}
