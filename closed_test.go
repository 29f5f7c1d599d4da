package blobindex

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// Every search shape of a closed index fails with ErrClosed — never with
// ErrEmptyIndex, which would tell a serving layer the index is missing
// rather than gone — for a built, an opened paged and an online index, with
// and without a refine store; writes fail with it too.
func TestClosedIndexSearchesReturnErrClosed(t *testing.T) {
	built, feats := refineFixture(t, 400, 16, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	paged, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	online, err := CreateOnline(filepath.Join(dir, "online"), Options{Method: RTree, Dim: 4}, OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := online.Insert(Point{Key: []float64{1, 2, 3, 4}, RID: 1}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	q := []float64{0.1, 0.2, 0.3, 0.4}
	for name, ix := range map[string]*Index{"built": built, "paged": paged, "online": online} {
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		reqs := []SearchRequest{{Query: q, K: 3}, {Query: q, Radius: 0.5}}
		if _, ok := ix.RefineDim(); ok {
			reqs = append(reqs,
				SearchRequest{Query: feats[0], K: 3, Refine: true},
				SearchRequest{Query: feats[0], Radius: 0.5, Refine: true})
		}
		for _, req := range reqs {
			if _, err := ix.Search(ctx, req); !errors.Is(err, ErrClosed) {
				t.Errorf("%s: Search(%+v) after Close: %v, want ErrClosed", name, req, err)
			}
			if resp, err := ix.SearchInto(ctx, req, make([]Neighbor, 0, 4)); !errors.Is(err, ErrClosed) || len(resp.Neighbors) != 0 {
				t.Errorf("%s: SearchInto(%+v) after Close: %d neighbors, %v, want ErrClosed", name, req, len(resp.Neighbors), err)
			}
		}
		if _, err := ix.BatchSearchKNN(ctx, [][]float64{q, q}, 3, 2); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: BatchSearchKNN after Close: %v, want ErrClosed", name, err)
		}
		if got := ix.SearchKNN(q, 3); len(got) != 0 {
			t.Errorf("%s: SearchKNN after Close returned %d neighbors", name, len(got))
		}
		if err := ix.Insert(Point{Key: q, RID: 99}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Insert after Close: %v, want ErrClosed", name, err)
		}
	}
}
