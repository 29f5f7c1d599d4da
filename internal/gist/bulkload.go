package gist

import (
	"fmt"
	"runtime"
	"sync"

	"blobindex/internal/geom"
)

// BulkLoad builds a tree bottom-up from points that the caller has already
// arranged in the desired leaf order (e.g. STR order, package
// blobindex/internal/str). Consecutive runs of points are packed into
// leaves at the given fill fraction, then each level of nodes is packed
// into parents until a single root remains. It uses all available cores;
// BulkLoadParallel takes an explicit worker bound.
//
// Because packing preserves contiguity, every node covers a contiguous
// range of the input slice, and its bounding predicate is computed by the
// extension directly from the raw points in that range (FromPoints). This
// is what gives bulk-loaded JB and XJB trees tight corner bites on inner
// nodes as well as leaves — the property §6 of the paper credits for JB's
// two-leaf-I/Os-per-query behavior.
//
// fill is the target node fill fraction in (0, 1]; the paper's STR loading
// packs pages completely (fill = 1), which is what minimizes utilization
// loss in Table 2.
func BulkLoad(ext Extension, cfg Config, pts []Point, fill float64) (*Tree, error) {
	return BulkLoadParallel(ext, cfg, pts, fill, 0)
}

// BulkLoadParallel is BulkLoad with an explicit bound on worker goroutines
// (0 means GOMAXPROCS, 1 loads serially). The built tree is identical for
// every worker count: leaf runs and node spans are fixed by the input
// order, and every extension builds predicates as a deterministic function
// of a node's point set, so parallelism only changes who computes each
// slot, never what lands in it.
func BulkLoadParallel(ext Extension, cfg Config, pts []Point, fill float64, workers int) (*Tree, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if fill <= 0 || fill > 1 {
		return nil, fmt.Errorf("gist: fill %v outside (0, 1]", fill)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t, err := New(ext, cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if len(p.Key) != cfg.Dim {
			return nil, fmt.Errorf("gist: key dimension %d, tree dimension %d", len(p.Key), cfg.Dim)
		}
	}
	if len(pts) == 0 {
		return t, nil
	}

	// span tracks the contiguous range of pts covered by each node.
	type span struct {
		node   *Node
		lo, hi int // pts[lo:hi]
	}

	// Build the leaf level. Node allocation stays serial (page ids are
	// assigned in order) but the per-leaf key packing fans out. Each leaf's
	// keys land in one exactly-sized contiguous dim-strided block.
	leafRun := int(fill * float64(t.leafCap))
	if leafRun < 1 {
		leafRun = 1
	}
	var level []span
	for lo := 0; lo < len(pts); lo += leafRun {
		hi := lo + leafRun
		if hi > len(pts) {
			hi = len(pts)
		}
		level = append(level, span{t.mem.alloc(0), lo, hi})
	}
	parallelFor(len(level), workers, func(i int) {
		leaf, lo, hi := level[i].node, level[i].lo, level[i].hi
		leaf.flatKeys = make([]float64, 0, (hi-lo)*t.dim)
		leaf.rids = make([]int64, 0, hi-lo)
		for _, p := range pts[lo:hi] {
			leaf.flatKeys = append(leaf.flatKeys, p.Key...)
			leaf.rids = append(leaf.rids, p.RID)
		}
	})

	// Pack each level into parents until one node remains. The per-child
	// predicate builds are independent and (for JB/XJB especially) the
	// expensive part of loading, so each level computes them in parallel
	// into a slot array indexed by child position.
	innerRun := int(fill * float64(t.innerCap))
	if innerRun < 2 {
		innerRun = 2
	}
	height := 1
	for len(level) > 1 {
		preds := make([]Predicate, len(level))
		parallelFor(len(level), workers, func(i int) {
			preds[i] = ext.FromPoints(keysOf(pts[level[i].lo:level[i].hi]))
		})

		var next []span
		for lo := 0; lo < len(level); lo += innerRun {
			hi := lo + innerRun
			if hi > len(level) {
				hi = len(level)
			}
			parent := t.mem.alloc(level[lo].node.level + 1)
			for ci, child := range level[lo:hi] {
				parent.preds = append(parent.preds, preds[lo+ci])
				parent.children = append(parent.children, child.node.id)
			}
			next = append(next, span{parent, level[lo].lo, level[hi-1].hi})
		}
		level = next
		height++
	}

	// Re-root onto the packed tree and retire the placeholder empty root
	// that New allocated as page 0 (its id is never reused, so the page-id
	// sequence of the packed nodes is unaffected).
	t.mem.free(t.rootID)
	t.rootID = level[0].node.id
	t.height = height
	t.size = len(pts)
	return t, nil
}

// parallelFor runs fn(0..n-1) across at most workers goroutines. Each index
// runs exactly once; fn instances must write only to their own slot.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// keysOf projects the key vectors out of a slice of points.
func keysOf(pts []Point) []geom.Vector {
	out := make([]geom.Vector, len(pts))
	for i := range pts {
		out[i] = pts[i].Key
	}
	return out
}
