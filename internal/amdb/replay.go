package amdb

import (
	"context"
	"time"

	"blobindex/internal/gist"
	"blobindex/internal/nn"
)

// ReplayResult is the outcome of a workload replay: the per-query result
// sets in workload order plus the aggregate I/O counts, without the loss
// analysis. The aggregates are computed in query order after all workers
// finish, so they are identical for every parallelism.
type ReplayResult struct {
	Queries  int
	LeafIOs  int
	InnerIOs int
	Elapsed  time.Duration
	// Results[i] holds query i's neighbors, nearest first.
	Results [][]nn.Result
}

// TotalIOs returns leaf plus inner page reads across the replay.
func (r *ReplayResult) TotalIOs() int { return r.LeafIOs + r.InnerIOs }

// QueriesPerSecond returns the replay throughput.
func (r *ReplayResult) QueriesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// Replay executes the workload's queries with the exact best-first search
// across a pool of parallelism workers (0 = GOMAXPROCS) and returns the
// results and I/O totals — the serving fast path, as opposed to Analyze's
// instrumented loss decomposition. Query i's results always land in slot i
// and each query carries its own trace, so the outcome is deterministic:
// replaying at any parallelism returns result-for-result what a sequential
// loop over nn.SearchCtxInto would. The first context error aborts the replay.
func Replay(ctx context.Context, tree *gist.Tree, queries []Query, parallelism int) (*ReplayResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	outcomes := make([]outcome, len(queries))
	if err := runQueries(ctx, tree, queries, nn.SearchCtxInto, parallelism, outcomes); err != nil {
		return nil, err
	}
	res := &ReplayResult{
		Queries: len(queries),
		Elapsed: time.Since(start),
		Results: make([][]nn.Result, len(queries)),
	}
	for qi := range outcomes {
		res.Results[qi] = outcomes[qi].results
		res.LeafIOs += outcomes[qi].trace.LeafAccesses()
		res.InnerIOs += outcomes[qi].trace.InnerAccesses()
	}
	return res, nil
}
