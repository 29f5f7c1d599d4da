package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"blobindex/internal/am"
	"blobindex/internal/amdb"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/page"
	"blobindex/internal/pagefile"
)

// PagedIORow is one access method × pool-size measurement of real buffer
// traffic: the workload executes against a demand-paged on-disk index and
// the pool's own counters report what happened, instead of a replayed
// simulation predicting it.
type PagedIORow struct {
	AM        string `json:"am"`
	PoolPages int    `json:"pool_pages"`
	TreePages int    `json:"tree_pages"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	// SimMisses replays the same queries' access streams (recorded during
	// the paged execution, so the events are identical) through the
	// simulation-only BufferPool of the same capacity — the §6 methodology —
	// for a side-by-side of predicted and measured faults.
	SimMisses      int     `json:"sim_misses"`
	MissesPerQuery float64 `json:"misses_per_query"`
	HitRate        float64 `json:"hit_rate"`
}

// PagedIOCrossCheck validates the amdb methodology per access method: the
// simulated per-level I/O counts of the analysis (best-first execution,
// distinct pages per query) must equal the real per-level buffer misses of
// the paged index when the pool is emptied before each query — both sides
// are produced by the same traversal events, one counted by the tracer, one
// by the buffer pool.
type PagedIOCrossCheck struct {
	AM             string  `json:"am"`
	SimulatedIOs   []int   `json:"simulated_level_ios"`
	RealMisses     []int64 `json:"real_level_misses"`
	Match          bool    `json:"match"`
	QueriesChecked int     `json:"queries_checked"`
}

// PagedIOResult is the pagedio experiment outcome; cmd/blobbench serializes
// it into the BENCH_*.json trajectory alongside the query-path benchmark.
type PagedIOResult struct {
	Queries    int                 `json:"queries"`
	K          int                 `json:"k"`
	Dim        int                 `json:"dim"`
	Rows       []PagedIORow        `json:"rows"`
	CrossCheck []PagedIOCrossCheck `json:"cross_check"`
}

// PagedIODefault runs the experiment for the three §6 access methods over a
// doubling ladder of pool fractions.
func PagedIODefault(s *Scenario) (*PagedIOResult, error) {
	return PagedIO(s,
		[]am.Kind{am.KindRTree, am.KindJB, am.KindXJB},
		[]float64{0.05, 0.125, 0.25, 0.5, 1.0})
}

// PagedIO saves each access method's tree to a pagefile, reopens it
// demand-paged, and executes the shared workload at each pool capacity
// (given as a fraction of the tree's pages). All numbers come from the real
// pinning pool; the SimMisses column replays the recorded access streams
// through the simulation BufferPool for comparison. A final pass per method
// cross-checks amdb's simulated per-level I/O accounting against real
// misses under per-query cold starts.
func PagedIO(s *Scenario, kinds []am.Kind, fractions []float64) (*PagedIOResult, error) {
	wl, err := s.Workload()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "pagedio")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	opts := am.Options{
		AMAPSamples: s.Params.AMAPSamples,
		AMAPSeed:    s.Params.Seed + 2,
		XJBX:        s.Params.XJBX,
	}
	res := &PagedIOResult{
		Queries: len(wl.Queries),
		K:       s.Params.K,
		Dim:     s.Params.Dim,
	}
	for _, kind := range kinds {
		tree, err := s.Tree(kind, false)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, string(kind)+".idx")
		if err := pagefile.Save(path, tree); err != nil {
			return nil, err
		}
		for _, frac := range fractions {
			poolPages := int(frac * float64(tree.NumPages()))
			if poolPages < 1 {
				poolPages = 1
			}
			paged, store, err := pagefile.OpenPaged(path, opts, poolPages)
			if err != nil {
				return nil, err
			}
			// Record each query's access stream during the real execution so
			// the simulation below replays the identical traversal events.
			traces := make([]gist.Trace, len(wl.Queries))
			var buf []nn.Result
			for qi, q := range wl.Queries {
				if buf, err = nn.SearchCtxInto(context.TODO(), paged, q.Center, q.K, &traces[qi], buf[:0]); err != nil {
					store.Close()
					return nil, fmt.Errorf("pagedio %s query %d: %w", kind, qi, err)
				}
			}
			st := store.PoolStats()
			sim := page.NewBufferPool(poolPages)
			for qi := range traces {
				for _, a := range traces[qi].Accesses {
					sim.Access(a.Page)
				}
			}
			row := PagedIORow{
				AM:        string(kind),
				PoolPages: poolPages,
				TreePages: tree.NumPages(),
				Hits:      st.Hits,
				Misses:    st.Misses,
				Evictions: st.Evictions,
				SimMisses: sim.Misses(),
			}
			if len(wl.Queries) > 0 {
				row.MissesPerQuery = float64(st.Misses) / float64(len(wl.Queries))
			}
			if total := st.Hits + st.Misses; total > 0 {
				row.HitRate = float64(st.Hits) / float64(total)
			}
			res.Rows = append(res.Rows, row)
			store.Close()
		}

		cc, err := pagedCrossCheck(s, kind, path, opts, wl.Queries)
		if err != nil {
			return nil, err
		}
		res.CrossCheck = append(res.CrossCheck, *cc)
	}
	return res, nil
}

// pagedCrossCheck compares amdb's simulated per-level I/Os (ModeBestFirst,
// in-memory tree) with the paged store's real per-level misses when the
// pool — sized to hold the whole tree — is emptied before every query, so
// each query faults exactly its distinct page set.
func pagedCrossCheck(s *Scenario, kind am.Kind, path string, opts am.Options, queries []amdb.Query) (*PagedIOCrossCheck, error) {
	tree, err := s.Tree(kind, false)
	if err != nil {
		return nil, err
	}
	rep, err := amdb.Analyze(tree, queries, amdb.Config{
		TargetUtil:  s.Params.TargetUtil,
		Mode:        amdb.ModeBestFirst,
		SkipOptimal: true,
	})
	if err != nil {
		return nil, err
	}
	paged, store, err := pagefile.OpenPaged(path, opts, tree.NumPages())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	store.ResetStats()
	var buf []nn.Result
	for qi, q := range queries {
		store.EvictAll()
		if buf, err = nn.SearchCtxInto(context.TODO(), paged, q.Center, q.K, nil, buf[:0]); err != nil {
			return nil, fmt.Errorf("pagedio cross-check %s query %d: %w", kind, qi, err)
		}
	}
	real := store.MissesByLevel()
	cc := &PagedIOCrossCheck{
		AM:             string(kind),
		SimulatedIOs:   rep.LevelIOs,
		RealMisses:     real,
		Match:          len(real) == len(rep.LevelIOs),
		QueriesChecked: len(queries),
	}
	if cc.Match {
		for l := range real {
			if real[l] != int64(rep.LevelIOs[l]) {
				cc.Match = false
				break
			}
		}
	}
	return cc, nil
}

// JSON renders the result for the BENCH_*.json trajectory.
func (r *PagedIOResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the result as aligned tables.
func (r *PagedIOResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Paged I/O: real buffer traffic of demand-paged indexes (%d queries, k=%d)\n",
		r.Queries, r.K)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s %10s %10s %8s\n",
		"am", "pool", "tree", "hits", "misses", "evicts", "sim-miss", "miss/q", "hit%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10d %10d %10d %10d %10d %10d %10.1f %8.1f\n",
			row.AM, row.PoolPages, row.TreePages, row.Hits, row.Misses,
			row.Evictions, row.SimMisses, row.MissesPerQuery, row.HitRate*100)
	}
	b.WriteString("\nCross-check: amdb simulated level I/Os vs real cold-start misses\n")
	for _, cc := range r.CrossCheck {
		status := "MATCH"
		if !cc.Match {
			status = "MISMATCH"
		}
		fmt.Fprintf(&b, "%-8s sim=%v real=%v %s\n", cc.AM, cc.SimulatedIOs, cc.RealMisses, status)
	}
	return strings.TrimRight(b.String(), "\n")
}
