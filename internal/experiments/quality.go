package experiments

import (
	"context"

	"blobindex/internal/am"
	"blobindex/internal/blobworld"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
)

// QualityRow measures one access method under the production query plan.
type QualityRow struct {
	AM         string
	AvgLeafIOs float64 // leaf reads per harvest query
	Recall     float64 // of the full ranking's top-40, via the AM's top-200
}

// Quality measures the paper's actual success criterion for an access
// method (§2.3): "the goal of the AM is to get the top few dozen Blobworld
// would select into the top few hundred that the AM selects." Each access
// method executes the production plan — the approximate candidate harvest
// of ~200 blobs, re-ranked against the full ranking's top 40 — and the row
// reports both what it cost (leaf I/Os) and what it delivered (recall).
// Because the harvest stops as soon as k candidates are gathered, the I/O
// cost is nearly identical across methods; the *quality* of the candidates
// depends on how well the bounding predicates steer the descent, which is
// where predicate design shows up in this mode.
func Quality(s *Scenario) ([]QualityRow, error) {
	wl, err := s.Workload()
	if err != nil {
		return nil, err
	}
	nq := len(wl.Foci)
	if nq > 48 {
		nq = 48
	}
	const refTop = 40

	// Ground truth per query focus (full 218-D ranking).
	refs := make([][]blobworld.ImageRank, nq)
	for qi := 0; qi < nq; qi++ {
		refs[qi] = s.Corpus.RankImages(s.Corpus.Blobs[wl.Foci[qi]].Feature, refTop)
	}

	rows := make([]QualityRow, 0, len(am.Kinds()))
	for _, kind := range am.Kinds() {
		tree, err := s.Tree(kind, false)
		if err != nil {
			return nil, err
		}
		var leafIOs int
		var recall float64
		for qi := 0; qi < nq; qi++ {
			var trace gist.Trace
			cands, err := nn.SearchApproxCtxInto(context.TODO(), tree, wl.Queries[qi].Center, s.Params.K, &trace, nil)
			if err != nil {
				return nil, err
			}
			leafIOs += trace.LeafAccesses()
			images := make([]int32, 0, len(cands))
			seen := make(map[int32]bool, len(cands))
			for _, c := range cands {
				img := s.Corpus.Blobs[c.RID].ImageID
				if !seen[img] {
					seen[img] = true
					images = append(images, img)
				}
			}
			recall += blobworld.Recall(refs[qi], images)
		}
		rows = append(rows, QualityRow{
			AM:         string(kind),
			AvgLeafIOs: float64(leafIOs) / float64(nq),
			Recall:     recall / float64(nq),
		})
	}
	return rows, nil
}
