package experiments

import (
	"context"

	"blobindex/internal/am"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/page"
)

// BufferRow reports one access method's workload cost under an LRU buffer
// pool of each swept size.
type BufferRow struct {
	AM string
	// MissesPerQuery[i] is the mean page faults per query with a buffer of
	// Sizes[i] pages (Sizes is returned alongside by BufferSweep).
	MissesPerQuery []float64
}

// BufferSweepResult is the §6 memory-effects experiment: the paper argues
// that although the JB tree wins on raw I/O counts, "XJB is likely to be
// more effective in the Blobworld system because its tree height is lower
// ... the XJB inner nodes are more likely to fit in memory". Replaying the
// workload's page accesses through LRU buffers of increasing size makes
// that trade measurable: small buffers penalize JB's many inner pages,
// large buffers absorb them and leaf filtering dominates.
type BufferSweepResult struct {
	Sizes []int // buffer capacities, in pages
	Rows  []BufferRow
}

// BufferSweepDefault runs the sweep for the three access methods the §6
// discussion compares (R-tree, JB, XJB) over a doubling ladder of buffer
// sizes up to the full tree.
func BufferSweepDefault(s *Scenario) (*BufferSweepResult, error) {
	return BufferSweep(s,
		[]am.Kind{am.KindRTree, am.KindJB, am.KindXJB},
		[]int{0, 8, 16, 32, 64, 128, 256, 512})
}

// BufferSweep replays each access method's workload traversals through LRU
// buffer pools of the given sizes (0 = no caching) and reports page faults
// per query. The buffer persists across the workload's queries, as a real
// system's buffer pool would.
func BufferSweep(s *Scenario, kinds []am.Kind, sizes []int) (*BufferSweepResult, error) {
	wl, err := s.Workload()
	if err != nil {
		return nil, err
	}
	res := &BufferSweepResult{Sizes: sizes}
	for _, kind := range kinds {
		tree, err := s.Tree(kind, false)
		if err != nil {
			return nil, err
		}
		// Collect the raw (non-deduplicated) access streams once.
		traces := make([]gist.Trace, len(wl.Queries))
		var buf []nn.Result
		for qi, q := range wl.Queries {
			if buf, err = nn.SearchSphereCtxInto(context.TODO(), tree, q.Center, q.K, &traces[qi], buf[:0]); err != nil {
				return nil, err
			}
		}
		row := BufferRow{AM: string(kind)}
		for _, size := range sizes {
			pool := page.NewBufferPool(size)
			for qi := range traces {
				for _, a := range traces[qi].Accesses {
					pool.Access(a.Page)
				}
			}
			row.MissesPerQuery = append(row.MissesPerQuery,
				float64(pool.Misses())/float64(len(wl.Queries)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
