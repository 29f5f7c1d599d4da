package blobindex

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"blobindex/internal/nn"
)

// nnBufPool recycles the intermediate nn.Result buffers behind the facade's
// search pipeline, so converting index results to Neighbors costs no
// steady-state allocation.
var nnBufPool = sync.Pool{New: func() any { return new([]nn.Result) }}

func getNNBuf() *[]nn.Result { return nnBufPool.Get().(*[]nn.Result) }

// putNNBuf zeroes the buffer's used prefix before pooling it, so a pooled
// buffer never pins tree-owned key slices between queries.
func putNNBuf(buf *[]nn.Result) {
	s := *buf
	for i := range s {
		s[i] = nn.Result{}
	}
	*buf = s[:0]
	nnBufPool.Put(buf)
}

// appendNeighbors converts index results onto the end of dst.
func appendNeighbors(dst []Neighbor, res []nn.Result) []Neighbor {
	for _, r := range res {
		dst = append(dst, Neighbor{RID: r.RID, Key: r.Key, Dist: math.Sqrt(r.Dist2), Dist2: r.Dist2})
	}
	return dst
}

// BatchSearchKNN answers one exact k-NN query per element of queries,
// fanning the workload out across a pool of parallelism worker goroutines
// (0 uses Options.Parallelism, and GOMAXPROCS if that is also zero). This
// is the replay fast path for workloads like the paper's 5,531-query
// evaluation set. Each query runs through the unified Search pipeline.
//
// The execution is deterministic: results[i] always holds query i's
// neighbors, nearest first, exactly as a sequential loop of SearchKNN
// calls would produce them — parallelism changes only which worker runs
// each query. All queries are validated up front (ErrDimMismatch names the
// first offender), an empty index returns ErrEmptyIndex, and the first
// context error cancels the remaining queries mid-traversal.
func (ix *Index) BatchSearchKNN(ctx context.Context, queries [][]float64, k int, parallelism int) ([][]Neighbor, error) {
	for i, q := range queries {
		if len(q) != ix.opts.Dim {
			return nil, fmt.Errorf("%w: query %d has dimension %d, index dimension %d",
				ErrDimMismatch, i, len(q), ix.opts.Dim)
		}
	}
	if err := ix.checkLive(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = ix.opts.Parallelism
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	if parallelism < 1 {
		parallelism = 1
	}

	out := make([][]Neighbor, len(queries))
	jobs := make(chan int, len(queries))
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Cancellation is checked between slots, not only inside the
				// page traversal: a worker whose next query would start after
				// the context died exits immediately — even when individual
				// searches are too fast to ever observe the cancellation
				// mid-traversal.
				if err := ctx.Err(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				resp, err := ix.Search(ctx, SearchRequest{Query: queries[i], K: k})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				out[i] = resp.Neighbors
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
