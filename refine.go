package blobindex

import (
	"fmt"

	"blobindex/internal/blobworld"
	"blobindex/internal/pagefile"
)

// SaveSidecar writes the full-feature side store the refine tier reads: one
// record per (rid, feature) pair — the same RIDs the index holds — plus the
// reducer's projection, so a refined request can carry the full-length query
// and have the index project it exactly as the build pipeline did. pageSize
// 0 uses the index default (8192). The write is crash-atomic, like
// Index.Save.
func SaveSidecar(path string, pageSize int, r *Reducer, rids []int64, features [][]float64) error {
	if r == nil {
		return fmt.Errorf("%w: SaveSidecar requires a fitted Reducer", ErrInvalidOptions)
	}
	if pageSize == 0 {
		pageSize = 8192
	}
	return pagefile.SaveSidecar(path, pageSize, r.pca.Mean, r.pca.Components, rids, features)
}

// AttachRefine opens the sidecar at path and attaches it as the index's
// refine tier: SearchRequest.Refine becomes servable, with full feature
// vectors demand-paged through a pinning pool of poolPages frames (0 means
// DefaultPoolPages). The sidecar must project to the index's dimensionality;
// a mismatch returns ErrDimMismatch. Close releases the attached store along
// with the index.
//
// Precondition: every index key is the sidecar's projection of its RID's
// feature, computed as SaveSidecar's Reducer and SideStore.Project compute
// it (Reducer.Reduce and ReduceAll do). A refined k-NN search relies on it:
// it skips the sidecar pages whose candidates the quadratic-form lower bound
// from their keys proves outside the top K (DESIGN.md §11), so a key that
// is not its feature's projection can prune a true answer.
func (ix *Index) AttachRefine(path string, poolPages int) error {
	if ix.side != nil {
		return fmt.Errorf("%w: refine store already attached", ErrInvalidOptions)
	}
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	s, err := pagefile.OpenSidecar(path, poolPages)
	if err != nil {
		return err
	}
	if s.IndexDim() != ix.opts.Dim {
		s.Close()
		return fmt.Errorf("%w: sidecar projects to %d dimensions, index has %d",
			ErrDimMismatch, s.IndexDim(), ix.opts.Dim)
	}
	ix.side = s
	ix.qfb = blobworld.NewQFBound(s.Projection())
	return nil
}

// RefineDim returns the full feature dimensionality of the attached refine
// store — the length a refining SearchRequest.Query must have. ok is false
// when no store is attached.
func (ix *Index) RefineDim() (dim int, ok bool) {
	if ix.side == nil {
		return 0, false
	}
	return ix.side.FullDim(), true
}

// RefineLen returns the number of full feature records the attached refine
// store holds; ok is false when no store is attached.
func (ix *Index) RefineLen() (n int, ok bool) {
	if ix.side == nil {
		return 0, false
	}
	return ix.side.Len(), true
}

// RefineStats returns the refine store's buffer pool and retry counters, in
// the same shape as BufferStats. ok is false when no store is attached.
func (ix *Index) RefineStats() (s BufferStats, ok bool) {
	if ix.side == nil {
		return BufferStats{}, false
	}
	ps := ix.side.PoolStats()
	return BufferStats{
		Hits:      ps.Hits,
		Misses:    ps.Misses,
		Evictions: ps.Evictions,
		Retries:   ps.Retries,
		GaveUp:    ps.GaveUp,
		Resident:  ps.Resident,
		Capacity:  ps.Capacity,
	}, true
}
