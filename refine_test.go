package blobindex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blobindex/internal/faultio"
	"blobindex/internal/pagefile"
)

// TestRefineSidecarClustersCandidates measures what the clustered layout is
// for, at the scale the benchmark's refine workload runs: over a 48k-blob
// Blobworld corpus, a refined 200-NN at the default recall target scores
// 2400 candidates, and in STR order those share pages — with four 218-d
// records to an 8 KB page the floor is 0.25 distinct pages per candidate,
// and RID order (sidecar format v1) measured 0.93. Each of those pages is
// pinned exactly once. The quadratic-form lower bound then leaves most of
// them unread: a query may read at most 300 pages (676 before the bound).
func TestRefineSidecarClustersCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 48k-blob corpus and a 98 MB sidecar")
	}
	c, err := GenerateCorpus(CorpusConfig{Images: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feats := c.Features()
	sample := make([][]float64, 0, len(feats)/2+1)
	for i := 0; i < len(feats); i += 2 {
		sample = append(sample, feats[i])
	}
	red, err := FitReducer(sample, 5)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, len(feats))
	rids := make([]int64, len(feats))
	for i, key := range red.ReduceAll(feats) {
		pts[i] = Point{Key: key, RID: int64(i)}
		rids[i] = int64(i)
	}
	ix, err := Build(pts, Options{Method: XJB, Dim: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	side := filepath.Join(t.TempDir(), "blobs.side")
	if err := SaveSidecar(side, 0, red, rids, feats); err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachRefine(side, 1024); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	var pages, candidates int
	for i := 0; i < 16; i++ {
		q := make([]float64, len(feats[0]))
		for d, v := range feats[rng.Intn(len(feats))] {
			q[d] = math.Max(0, v*(1+0.1*rng.NormFloat64()))
		}
		before, _ := ix.RefineStats()
		resp, err := ix.Search(context.Background(), SearchRequest{Query: q, K: 200, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		after, _ := ix.RefineStats()
		if pins := (after.Hits + after.Misses) - (before.Hits + before.Misses); int(pins) != resp.Refine.Pages {
			t.Fatalf("query %d: %d pool pins for %d distinct pages", i, pins, resp.Refine.Pages)
		}
		pages += resp.Refine.Pages
		candidates += resp.Refine.Candidates
	}
	if candidates != 16*200*MultiplierForRecall(DefaultTargetRecall) {
		t.Fatalf("scored %d candidates, want %d", candidates, 16*200*MultiplierForRecall(DefaultTargetRecall))
	}
	ratio := float64(pages) / float64(candidates)
	t.Logf("%.3f distinct sidecar pages per candidate (%d pages per query)", ratio, pages/16)
	if ratio > 0.5 {
		t.Fatalf("%.3f distinct sidecar pages per candidate, want at most 0.5", ratio)
	}
	if pages > 16*300 {
		t.Fatalf("%d sidecar pages per refined query, want at most 300", pages/16)
	}
}

// TestRefineConcurrentRecycling drives the frame-recycling read path the way
// a loaded daemon does, under the race detector when it is on: 8 goroutines
// of refined searches share a sidecar pool smaller than one query's page
// set, so every search evicts frames other searches are about to reload and
// each frame is recycled many times over. A view handed to the scorer while
// its frame is being refilled would show as a race or as a wrong distance;
// every answer must equal the single-threaded one bit for bit, and the pool
// may never hold more than its capacity (8 readers pin one page each). The
// run is then repeated over a store injecting 5% transient and 5% bit-flip
// read faults: a search may now fail, with the fault's error class, but one
// that succeeds must still return exactly the fault-free answer — a frame
// whose load failed never became visible.
func TestRefineConcurrentRecycling(t *testing.T) {
	const (
		n       = 3000
		workers = 8
		pool    = 8
	)
	ix, feats, side := refineFixturePool(t, n, 32, 4, pool)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	reqs := make([]SearchRequest, 40)
	for i := range reqs {
		q := make([]float64, len(feats[0]))
		for d, v := range feats[rng.Intn(n)] {
			q[d] = v + 0.02*rng.NormFloat64()
		}
		reqs[i] = SearchRequest{Query: q, K: 20, Refine: true, Multiplier: 8}
		if i%4 == 3 {
			reqs[i] = SearchRequest{Query: q, Radius: 0.3, Refine: true}
		}
	}
	want := make([][]Neighbor, len(reqs))
	for i, req := range reqs {
		resp, err := ix.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 && resp.Refine.Pages <= pool {
			t.Fatalf("request %d touches %d pages: the pool of %d must be smaller than a query's page set", i, resp.Refine.Pages, pool)
		}
		want[i] = resp.Neighbors
	}

	// run sends every request from every worker and returns how many
	// searches succeeded; failures must satisfy allowed.
	run := func(allowed func(error) bool) (succeeded int) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var dst []Neighbor
				ok := 0
				for j := range reqs {
					i := (j + w*5) % len(reqs)
					resp, err := ix.SearchInto(ctx, reqs[i], dst[:0])
					dst = resp.Neighbors[:0]
					if st, _ := ix.RefineStats(); st.Resident > st.Capacity {
						t.Errorf("pool holds %d frames, capacity %d", st.Resident, st.Capacity)
						return
					}
					if err != nil {
						if !allowed(err) {
							t.Errorf("worker %d request %d: %v", w, i, err)
							return
						}
						continue
					}
					ok++
					if len(resp.Neighbors) != len(want[i]) {
						t.Errorf("worker %d request %d: %d neighbors, want %d", w, i, len(resp.Neighbors), len(want[i]))
						return
					}
					for r, nb := range resp.Neighbors {
						if nb.RID != want[i][r].RID || math.Float64bits(nb.Dist2) != math.Float64bits(want[i][r].Dist2) {
							t.Errorf("worker %d request %d rank %d: (rid %d, dist2 %v), want (rid %d, dist2 %v)",
								w, i, r, nb.RID, nb.Dist2, want[i][r].RID, want[i][r].Dist2)
							return
						}
					}
				}
				mu.Lock()
				succeeded += ok
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		return succeeded
	}

	if got := run(func(error) bool { return false }); got != workers*len(reqs) {
		t.Fatalf("%d of %d fault-free searches succeeded", got, workers*len(reqs))
	}
	if st, _ := ix.RefineStats(); st.Evictions == 0 {
		t.Fatalf("no frame was ever evicted, so none was recycled: %+v", st)
	}

	// The same traffic over a faulty device.
	var inj *faultio.Injector
	faulty, err := pagefile.OpenSidecarIO(side, pool, func(f faultio.File) faultio.File {
		inj = faultio.Wrap(f, faultio.Config{
			Seed:     13,
			PageSize: 4096,
			Rates:    faultio.Rates{Transient: 0.05, Corrupt: 0.05},
		})
		return inj
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.side.Close(); err != nil {
		t.Fatal(err)
	}
	ix.side = faulty // closed with ix by the fixture's cleanup
	got := run(func(err error) bool {
		return errors.Is(err, ErrStorageCorrupt) || errors.Is(err, ErrStorageTransient)
	})
	fs := inj.Stats()
	t.Logf("%d of %d searches succeeded over %d reads (%d transient, %d bit-flipped)",
		got, workers*len(reqs), fs.Reads, fs.Transient, fs.Corrupted)
	if got == 0 || got == workers*len(reqs) || fs.Transient == 0 || fs.Corrupted == 0 {
		t.Fatalf("the faulty run must see both outcomes and both fault classes: %d successes, %+v", got, fs)
	}
	if st, _ := ix.RefineStats(); st.Retries == 0 || st.Resident > st.Capacity {
		t.Fatalf("faulty run left the store at %+v", st)
	}
}

// TestRefineSearchesRaceClose closes an index — a paged file index with an
// attached sidecar, both read through read-only mappings — while 8
// goroutines run refined searches over small pools, under the race detector
// when it is on. Every search must return either the answer of the
// single-threaded fault-free run, bit for bit, or an error: a read racing
// Close either finishes on a live mapping or fails, and none reads one
// after it is unmapped.
func TestRefineSearchesRaceClose(t *testing.T) {
	const (
		n       = 3000
		workers = 8
		pool    = 8
	)
	mem, feats, side := refineFixturePool(t, n, 32, 4, pool)
	path := filepath.Join(t.TempDir(), "blobs.idx")
	if err := mem.Save(path); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	reqs := make([]SearchRequest, 24)
	for i := range reqs {
		q := make([]float64, len(feats[0]))
		for d, v := range feats[rng.Intn(n)] {
			q[d] = v + 0.02*rng.NormFloat64()
		}
		reqs[i] = SearchRequest{Query: q, K: 20, Refine: true, Multiplier: 8}
	}
	want := make([][]Neighbor, len(reqs))
	for i, req := range reqs {
		resp, err := mem.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.Neighbors
	}

	for round := 0; round < 4; round++ {
		ix, err := OpenWithOptions(path, OpenOptions{PoolPages: pool})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.AttachRefine(side, pool); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		served, failed, closedReads := 0, 0, 0
		started := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ok, bad, closed := 0, 0, 0
				for j := 0; j < 3*len(reqs); j++ {
					if j == 1 {
						started <- struct{}{}
					}
					i := (j + w*5) % len(reqs)
					resp, err := ix.Search(ctx, reqs[i])
					if err != nil {
						bad++
						if errors.Is(err, os.ErrClosed) {
							closed++
						}
						continue
					}
					ok++
					if len(resp.Neighbors) != len(want[i]) {
						t.Errorf("round %d worker %d request %d: %d neighbors, want %d", round, w, i, len(resp.Neighbors), len(want[i]))
						return
					}
					for r, nb := range resp.Neighbors {
						if nb.RID != want[i][r].RID || math.Float64bits(nb.Dist2) != math.Float64bits(want[i][r].Dist2) {
							t.Errorf("round %d worker %d request %d rank %d: (rid %d, dist2 %v), want (rid %d, dist2 %v)",
								round, w, i, r, nb.RID, nb.Dist2, want[i][r].RID, want[i][r].Dist2)
							return
						}
					}
				}
				mu.Lock()
				served, failed, closedReads = served+ok, failed+bad, closedReads+closed
				mu.Unlock()
			}(w)
		}
		for w := 0; w < workers; w++ {
			<-started
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		t.Logf("round %d: %d searches served, %d failed after Close (%d on a closed file)", round, served, failed, closedReads)
		if served == 0 || failed == 0 {
			t.Fatalf("round %d: Close must land mid-traffic: %d served, %d failed", round, served, failed)
		}
	}
}
