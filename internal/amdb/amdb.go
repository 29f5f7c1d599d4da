// Package amdb reimplements the analysis framework of the amdb access
// method debugging tool (Kornacker, Shah, Hellerstein 1999), which the
// Blobworld paper uses for every number in its evaluation: given a loaded
// GiST and a workload of nearest-neighbor queries, it executes the workload,
// profiles every page access, and decomposes the leaf-level I/O of each
// query into the three loss metrics of paper Table 1, measured against an
// idealized tree:
//
//   - Excess coverage loss: accesses to leaves holding no result of the
//     query — the fault of over-permissive bounding predicates.
//   - Utilization loss: extra accesses attributable to useful leaves being
//     emptier than the target utilization — the data could have been packed
//     onto fewer pages.
//   - Clustering loss: the remaining gap to the optimal assignment of data
//     to leaves, computed by multilevel hypergraph partitioning of the
//     workload's result sets (package blobindex/internal/hypergraph).
//
// The sum of the losses and the optimal I/Os reconstructs the observed leaf
// I/Os of each query, so "percent of leaf I/Os lost to X" (paper Figures
// 7/14) is directly readable from a Report.
package amdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/hypergraph"
	"blobindex/internal/nn"
	"blobindex/internal/page"
)

// Query is one workload query: the k nearest neighbors of Center.
type Query struct {
	Center geom.Vector
	K      int
}

// Config tunes the analysis.
type Config struct {
	// TargetUtil is the target page utilization against which utilization
	// loss is measured, in (0, 1]. amdb's convention; defaults to 0.8.
	TargetUtil float64
	// Seed drives the hypergraph partitioner.
	Seed int64
	// SkipOptimal disables the (comparatively expensive) optimal-clustering
	// computation; OptimalIOs and ClusteringLoss are then reported as zero
	// and the full leaf I/O decomposition is unavailable.
	SkipOptimal bool
	// Mode selects how the workload's k-NN queries execute. The default,
	// ModeSphere, is the paper's analytical model.
	Mode SearchMode
	// Parallelism bounds the worker goroutines executing the workload
	// (0 means GOMAXPROCS, 1 runs serially). The analysis is deterministic
	// for every value: queries execute into per-query slots and the metrics
	// are aggregated in query order.
	Parallelism int
}

// SearchMode selects the k-NN execution strategy the analysis profiles.
type SearchMode int

const (
	// ModeSphere executes each query as one range query at the query's
	// true k-th-neighbor radius — the "expanding sphere" model of paper §5
	// and Figure 9, with an identical sphere for every access method. A
	// leaf is read iff its bounding predicate intersects the sphere, so
	// the loss metrics isolate pure predicate quality; this is the default
	// and the mode under which the paper's figures are reproduced.
	ModeSphere SearchMode = iota
	// ModeBestFirst executes the Hjaltason–Samet best-first search: exact
	// and I/O-optimal for the given predicates.
	ModeBestFirst
	// ModeExpanding executes the full system behavior: a greedy probe
	// furnishes a radius estimate and range queries re-descend from the
	// root with growing spheres until one holds k points. Exact results;
	// I/O depends on the per-method radius schedule.
	ModeExpanding
	// ModeHarvest executes the "quick and dirty" candidate harvest of
	// §2.3: leaves are read in predicate-distance order until k candidates
	// are gathered; results are approximate.
	ModeHarvest
)

// QueryProfile is the per-query analysis outcome.
type QueryProfile struct {
	LeafIOs   int // leaf pages read
	InnerIOs  int // internal pages read
	UsefulIOs int // leaf pages read that held ≥1 result
	// InnerExcess counts internal pages read whose subtree contributed no
	// result — the inner-node share of excess coverage (the paper's
	// footnote 6 observes the SR-tree's total excess overtakes the
	// R-tree's once inner nodes are counted).
	InnerExcess int
	// OptimalIOs is the leaf I/Os of the idealized tree for this query: the
	// number of blocks the query's results span in the optimal clustering,
	// clamped so the ideal tree is never reported worse than the observed
	// one (the partitioner is a heuristic and can occasionally lose to the
	// achieved clustering). The clamp keeps the per-query decomposition
	// LeafIOs = OptimalIOs + ClusterLoss + UtilLoss + ExcessLoss exact.
	OptimalIOs float64

	ExcessLoss  float64 // = LeafIOs - UsefulIOs
	UtilLoss    float64
	ClusterLoss float64

	Results []nn.Result
}

// NodeProfile aggregates accesses to one leaf page across the workload.
type NodeProfile struct {
	Accesses      int
	EmptyAccesses int // accesses that produced no results
	Utilization   float64
}

// Totals aggregates the workload-level numbers the paper's tables and
// figures report.
type Totals struct {
	Queries  int
	LeafIOs  int
	InnerIOs int

	ExcessLoss  float64
	UtilLoss    float64
	ClusterLoss float64
	OptimalIOs  float64

	// InnerExcessLoss is the inner-node analogue of ExcessLoss (footnote 6).
	InnerExcessLoss float64
}

// TotalIOs returns leaf plus inner page reads.
func (t Totals) TotalIOs() int { return t.LeafIOs + t.InnerIOs }

// ExcessPct returns excess coverage loss as a fraction of leaf I/Os.
func (t Totals) ExcessPct() float64 { return pct(t.ExcessLoss, t.LeafIOs) }

// UtilPct returns utilization loss as a fraction of leaf I/Os.
func (t Totals) UtilPct() float64 { return pct(t.UtilLoss, t.LeafIOs) }

// ClusterPct returns clustering loss as a fraction of leaf I/Os.
func (t Totals) ClusterPct() float64 { return pct(t.ClusterLoss, t.LeafIOs) }

func pct(loss float64, total int) float64 {
	if total == 0 {
		return 0
	}
	return loss / float64(total)
}

// Report is the outcome of analyzing one access method under one workload.
type Report struct {
	AM         string
	TreeHeight int
	NumPages   int
	NumLeaves  int
	LeafCap    int
	TargetUtil float64

	PerQuery []QueryProfile
	Nodes    map[page.PageID]*NodeProfile
	Totals   Totals

	// LevelIOs[l] is the number of workload page reads at tree level l
	// (0 = leaves). For tall trees (JB especially) it shows where the
	// Figure-16 inner-node cost concentrates.
	LevelIOs []int

	// Pool, present when the tree's store exposes buffer statistics (a
	// demand-paged index), is the delta of the real pool counters across the
	// workload execution — the measured counterpart of the simulated
	// LevelIOs, produced by the very same traversal events (each traced
	// access is a store pin).
	Pool *page.PoolStats
}

// AvgLeafIOsPerQuery returns the mean leaf I/Os per workload query.
func (r *Report) AvgLeafIOsPerQuery() float64 {
	if r.Totals.Queries == 0 {
		return 0
	}
	return float64(r.Totals.LeafIOs) / float64(r.Totals.Queries)
}

// AvgTotalIOsPerQuery returns the mean total I/Os per workload query.
func (r *Report) AvgTotalIOsPerQuery() float64 {
	if r.Totals.Queries == 0 {
		return 0
	}
	return float64(r.Totals.TotalIOs()) / float64(r.Totals.Queries)
}

// PagesHitFraction returns the mean fraction of the tree's pages one query
// touches — the paper's "none of our AMs hit more than one in 50 of the AM
// total pages" check (§6).
func (r *Report) PagesHitFraction() float64 {
	if r.NumPages == 0 {
		return 0
	}
	return r.AvgTotalIOsPerQuery() / float64(r.NumPages)
}

// dedupeTrace returns a trace containing the first access to each distinct
// page, preserving order. seen is caller-provided scratch (cleared here) so a
// worker replaying many queries reuses one map instead of allocating one per
// query.
func dedupeTrace(raw *gist.Trace, seen map[page.PageID]bool) *gist.Trace {
	clear(seen)
	out := &gist.Trace{Accesses: make([]gist.Access, 0, len(raw.Accesses))}
	for _, a := range raw.Accesses {
		if !seen[a.Page] {
			seen[a.Page] = true
			out.Accesses = append(out.Accesses, a)
		}
	}
	return out
}

// Analyze executes the workload against the tree and computes the amdb
// metrics. The tree is not modified.
func Analyze(tree *gist.Tree, queries []Query, cfg Config) (*Report, error) {
	return AnalyzeCtx(context.Background(), tree, queries, cfg)
}

// AnalyzeCtx is Analyze with cancellation: ctx is threaded into every query
// execution, so cancellation lands mid-traversal and the first context
// error aborts the analysis.
func AnalyzeCtx(ctx context.Context, tree *gist.Tree, queries []Query, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.8
	}
	if cfg.TargetUtil < 0 || cfg.TargetUtil > 1 {
		return nil, fmt.Errorf("amdb: TargetUtil %v outside (0, 1]", cfg.TargetUtil)
	}

	r := &Report{
		AM:         tree.Ext().Name(),
		TreeHeight: tree.Height(),
		NumPages:   tree.NumPages(),
		NumLeaves:  tree.NumLeaves(),
		LeafCap:    tree.LeafCapacity(),
		TargetUtil: cfg.TargetUtil,
		Nodes:      make(map[page.PageID]*NodeProfile),
	}

	// Leaf utilizations and the dense RID numbering for the partitioner,
	// plus each leaf's chain of inner ancestors (for inner excess). The scan
	// runs pin→use→unpin like any traversal, so it works over a demand-paged
	// store too (where it faults in each page once).
	ridIndex := make(map[int64]int, tree.Len())
	ancestors := make(map[page.PageID][]page.PageID)
	store := tree.Store()
	var index func(id page.PageID, chain []page.PageID) error
	index = func(id page.PageID, chain []page.PageID) error {
		n, err := store.Pin(id)
		if err != nil {
			return err
		}
		defer store.Unpin(n)
		if n.IsLeaf() {
			r.Nodes[n.ID()] = &NodeProfile{
				Utilization: float64(n.NumEntries()) / float64(tree.LeafCapacity()),
			}
			for i := 0; i < n.NumEntries(); i++ {
				rid := n.LeafRID(i)
				if _, dup := ridIndex[rid]; !dup {
					ridIndex[rid] = len(ridIndex)
				}
			}
			ancestors[n.ID()] = append([]page.PageID(nil), chain...)
			return nil
		}
		chain = append(chain, n.ID())
		for i := 0; i < n.NumEntries(); i++ {
			if err := index(n.ChildID(i), chain); err != nil {
				return err
			}
		}
		return nil
	}
	tree.RLock()
	err := index(tree.RootID(), nil)
	tree.RUnlock()
	if err != nil {
		return nil, err
	}

	// Snapshot real buffer-pool counters (demand-paged stores only) after
	// the structure scan, so the delta reported below covers exactly the
	// workload's traversals.
	statsProvider, hasPool := store.(gist.StatsProvider)
	var poolBefore page.PoolStats
	if hasPool {
		poolBefore = statsProvider.PoolStats()
	}

	// Execute the workload.
	r.PerQuery = make([]QueryProfile, len(queries))
	edges := make([][]int, 0, len(queries))
	search := searchFunc(cfg.Mode)

	// Execute the queries in parallel — searches only read the tree — then
	// compute the metrics sequentially.
	outcomes := make([]outcome, len(queries))
	if err := runQueries(ctx, tree, queries, search, cfg.Parallelism, outcomes); err != nil {
		return nil, err
	}

	r.LevelIOs = make([]int, tree.Height())
	for qi := range queries {
		results, trace := outcomes[qi].results, outcomes[qi].trace
		for _, a := range trace.Accesses {
			if a.Level < len(r.LevelIOs) {
				r.LevelIOs[a.Level]++
			}
		}
		qp := &r.PerQuery[qi]
		qp.Results = results
		qp.LeafIOs = trace.LeafAccesses()
		qp.InnerIOs = trace.InnerAccesses()

		useful := make(map[page.PageID]bool)
		usefulInner := make(map[page.PageID]bool)
		for _, res := range results {
			if !useful[res.Leaf] {
				useful[res.Leaf] = true
				for _, anc := range ancestors[res.Leaf] {
					usefulInner[anc] = true
				}
			}
		}
		qp.UsefulIOs = len(useful)
		qp.ExcessLoss = float64(qp.LeafIOs - qp.UsefulIOs)
		for _, a := range trace.Accesses {
			if a.Level > 0 && !usefulInner[a.Page] {
				qp.InnerExcess++
			}
		}

		for _, pid := range trace.LeafPages() {
			np := r.Nodes[pid]
			if np == nil {
				// The page appeared after the structure snapshot (a
				// concurrent writer split a node). Profile it with full
				// utilization so it charges no utilization loss.
				np = &NodeProfile{Utilization: 1}
				r.Nodes[pid] = np
			}
			np.Accesses++
			if !useful[pid] {
				np.EmptyAccesses++
			}
		}
		// Utilization loss: useful pages emptier than the target waste a
		// fraction of their access.
		for pid := range useful {
			if np := r.Nodes[pid]; np != nil && np.Utilization < cfg.TargetUtil {
				qp.UtilLoss += 1 - np.Utilization/cfg.TargetUtil
			}
		}

		edge := make([]int, 0, len(results))
		seen := make(map[int]bool, len(results))
		for _, res := range results {
			if v, ok := ridIndex[res.RID]; ok && !seen[v] {
				seen[v] = true
				edge = append(edge, v)
			}
		}
		edges = append(edges, edge)
	}

	// Optimal clustering baseline.
	var spans []int
	if !cfg.SkipOptimal && len(ridIndex) > 0 {
		capacity := int(cfg.TargetUtil * float64(tree.LeafCapacity()))
		if capacity < 1 {
			capacity = 1
		}
		h := hypergraph.Hypergraph{NumVertices: len(ridIndex), Edges: edges}
		part := hypergraph.PartitionConnectivity(h, hypergraph.Options{
			Capacity: capacity,
			Seed:     cfg.Seed,
		})
		spans = part.EdgeSpans(h)
	}

	for qi := range r.PerQuery {
		qp := &r.PerQuery[qi]
		if spans != nil {
			qp.ClusterLoss = math.Max(0,
				float64(qp.UsefulIOs)-qp.UtilLoss-float64(spans[qi]))
			qp.OptimalIOs = float64(qp.UsefulIOs) - qp.UtilLoss - qp.ClusterLoss
		}
		r.Totals.LeafIOs += qp.LeafIOs
		r.Totals.InnerIOs += qp.InnerIOs
		r.Totals.InnerExcessLoss += float64(qp.InnerExcess)
		r.Totals.ExcessLoss += qp.ExcessLoss
		r.Totals.UtilLoss += qp.UtilLoss
		r.Totals.ClusterLoss += qp.ClusterLoss
		r.Totals.OptimalIOs += qp.OptimalIOs
	}
	r.Totals.Queries = len(queries)
	if hasPool {
		d := statsProvider.PoolStats().Sub(poolBefore)
		r.Pool = &d
	}
	return r, nil
}

// searchFn executes one k-NN query with cancellation and tracing, appending
// the results to the given buffer — the Into shape, so the replay loop
// controls every result allocation.
type searchFn func(context.Context, *gist.Tree, geom.Vector, int, *gist.Trace, []nn.Result) ([]nn.Result, error)

// searchFunc maps an execution mode to its search implementation.
func searchFunc(mode SearchMode) searchFn {
	switch mode {
	case ModeBestFirst:
		return nn.SearchCtxInto
	case ModeExpanding:
		return nn.SearchExpandingCtxInto
	case ModeHarvest:
		return nn.SearchApproxCtxInto
	default:
		return nn.SearchSphereCtxInto
	}
}

// outcome is one executed query awaiting metric computation.
type outcome struct {
	results []nn.Result
	trace   *gist.Trace
}

// runQueries executes the workload across a pool of parallelism workers
// (0 = GOMAXPROCS), each query into its own outcomes slot so downstream
// aggregation in query order is deterministic regardless of scheduling.
// The first context error aborts the run.
func runQueries(ctx context.Context, tree *gist.Tree, queries []Query, search searchFn, parallelism int, outcomes []outcome) error {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int, len(queries))
	for qi := range queries {
		next <- qi
	}
	close(next)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-local scratch, reused across every query this worker
			// executes: the raw trace's access buffer and the dedupe map.
			// Only the per-query outputs (results, deduped trace) are
			// allocated fresh, since they outlive the loop in outcomes.
			var raw gist.Trace
			seen := make(map[page.PageID]bool)
			for qi := range next {
				if ctx.Err() != nil {
					return
				}
				q := queries[qi]
				raw.Accesses = raw.Accesses[:0]
				results, err := search(ctx, tree, q.Center, q.K, &raw, make([]nn.Result, 0, q.K))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				// A query's pages stay buffered for the duration of the
				// query (the expanding-sphere execution re-descends from
				// the root on every radius, and §3.2's cost argument
				// assumes the hot path is cached), so the I/O cost of a
				// query is its distinct page set.
				outcomes[qi] = outcome{results: results, trace: dedupeTrace(&raw, seen)}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
