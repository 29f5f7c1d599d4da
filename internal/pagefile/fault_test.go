package pagefile

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/faultio"
	"blobindex/internal/geom"
	"blobindex/internal/nn"
)

// withInjector returns an OpenPagedIO wrap installing a fault injector with
// the given config (PageSize is filled from the saved file's page size by
// the caller), and a handle to read its stats.
func withInjector(cfg faultio.Config) (wrap func(faultio.File) faultio.File, get func() faultio.Stats) {
	var inj *faultio.Injector
	wrap = func(f faultio.File) faultio.File {
		inj = faultio.Wrap(f, cfg)
		return inj
	}
	get = func() faultio.Stats { return inj.Stats() }
	return wrap, get
}

// queryDigest runs a fixed query set and hashes (RID, Dist2-bits) of every
// result — the golden-workload digest the crash-recovery test compares.
func queryDigest(t *testing.T, search func(q geom.Vector, k int) []nn.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100}
		for _, r := range search(q, 50) {
			var buf [16]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(r.RID >> (8 * i))
				buf[8+i] = byte(math.Float64bits(r.Dist2) >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Transient faults below the retry budget are invisible to queries: with
// every page failing twice then reading cleanly, results are identical to
// the fault-free run and the retry counters record every absorbed fault.
func TestPinRetriesTransientFaults(t *testing.T) {
	tree, _ := buildTree(t, am.KindRTree, 800, 2, 1024)
	path := filepath.Join(t.TempDir(), "retry.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	wrap, stats := withInjector(faultio.Config{
		Seed:           1,
		PageSize:       1024,
		Rates:          faultio.Rates{Transient: 1.0},
		MaxConsecutive: 2,
	})
	paged, store, err := OpenPagedIO(path, am.Options{}, 0, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100}
		want := knn(t, tree, q, 30, nil)
		got, err := nn.SearchCtxInto(context.Background(), paged, q, 30, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: search failed despite retries: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].RID != want[i].RID || got[i].Dist2 != want[i].Dist2 {
				t.Fatalf("trial %d result %d differs", trial, i)
			}
		}
	}
	// Pages are read only on demand, so every injected fault hit a Pin's
	// read and, under the budget, was absorbed by exactly one retry.
	st, inj := store.PoolStats(), stats()
	if inj.Transient == 0 {
		t.Error("injector reports no injected faults")
	}
	if st.Retries != inj.Transient+inj.Torn {
		t.Errorf("retries %d, want one per injected fault (%d transient + %d torn)",
			st.Retries, inj.Transient, inj.Torn)
	}
	if st.GaveUp != 0 {
		t.Errorf("gave up %d times with faults under the retry budget", st.GaveUp)
	}
}

// A page that never reads cleanly exhausts the bounded retry budget; the
// pin fails with ErrTransient (and the facade alias matches it), and the
// gave-up counter records the surrender.
func TestPinGivesUpAfterBoundedRetries(t *testing.T) {
	tree, _ := buildTree(t, am.KindRTree, 800, 2, 1024)
	path := filepath.Join(t.TempDir(), "giveup.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	wrap, _ := withInjector(faultio.Config{
		Seed:     2,
		PageSize: 1024,
		Rates:    faultio.Rates{Transient: 1.0}, // no cap: never succeeds
	})
	paged, store, err := OpenPagedIO(path, am.Options{}, 0, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	_, err = nn.SearchCtxInto(context.Background(), paged, geom.Vector{50, 50}, 10, nil, nil)
	if err == nil {
		t.Fatal("search succeeded against a permanently failing file")
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("error %v does not match ErrTransient", err)
	}
	st := store.PoolStats()
	if st.GaveUp == 0 {
		t.Error("gave-up counter not incremented")
	}
	if st.Retries != st.GaveUp*(pinAttempts-1) {
		t.Errorf("retries %d, want %d (gaveUp %d × %d retries each)",
			st.Retries, st.GaveUp*(pinAttempts-1), st.GaveUp, pinAttempts-1)
	}
}

// Bit-flip corruption is caught by the page CRC and is NOT retried: the
// error matches ErrChecksum, not ErrTransient, and no retry is burned on
// bytes that are simply wrong.
func TestCorruptReadFailsWithChecksumNoRetry(t *testing.T) {
	tree, _ := buildTree(t, am.KindRTree, 800, 2, 1024)
	path := filepath.Join(t.TempDir(), "corrupt.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	wrap, _ := withInjector(faultio.Config{
		Seed:     3,
		PageSize: 1024,
		Rates:    faultio.Rates{Corrupt: 1.0},
	})
	paged, store, err := OpenPagedIO(path, am.Options{}, 0, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	_, err = nn.SearchCtxInto(context.Background(), paged, geom.Vector{50, 50}, 10, nil, nil)
	if err == nil {
		t.Fatal("search succeeded over always-corrupting reads")
	}
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("error %v does not match ErrChecksum", err)
	}
	if errors.Is(err, ErrTransient) {
		t.Errorf("corruption misclassified as transient: %v", err)
	}
	st := store.PoolStats()
	if st.Retries != 0 {
		t.Errorf("%d retries burned on a checksum failure", st.Retries)
	}
}

// Satellite: crash mid-Save must never lose the previously saved index.
// The temp file is truncated at randomized offsets (the states a kill
// between the first tmp write and the rename leaves behind) and the
// original index must still open and serve the golden workload digest
// unchanged — because Save never writes through the live path.
func TestSaveCrashMidSaveKeepsOldIndex(t *testing.T) {
	dir := t.TempDir()
	tree, pts := buildTree(t, am.KindJB, 900, 2, 1024)
	path := filepath.Join(dir, "crash.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	golden := queryDigest(t, func(q geom.Vector, k int) []nn.Result {
		return knn(t, tree, q, k, nil)
	})

	// The bytes a *newer* Save would have written: mutate a copy of the
	// tree (via reload) and serialize it elsewhere.
	mutated, err := Load(path, am.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := mutated.Delete(pts[i].Key, pts[i].RID); err != nil {
			t.Fatal(err)
		}
	}
	newPath := filepath.Join(dir, "newer.idx")
	if err := Save(newPath, mutated); err != nil {
		t.Fatal(err)
	}
	newBytes, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		cut := 1 + rng.Intn(len(newBytes)-1)
		if err := os.WriteFile(path+".tmp", newBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The live index is untouched by the torn tmp…
		loaded, err := Load(path, am.Options{})
		if err != nil {
			t.Fatalf("trial %d (cut %d): previous index unreadable: %v", trial, cut, err)
		}
		digest := queryDigest(t, func(q geom.Vector, k int) []nn.Result {
			return knn(t, loaded, q, k, nil)
		})
		if digest != golden {
			t.Fatalf("trial %d (cut %d): workload digest changed: %x != %x",
				trial, cut, digest, golden)
		}
	}

	// …and a subsequent successful Save replaces both the index and the
	// stale temp file.
	if err := Save(path, mutated); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("stale temp file survives a successful Save (stat err: %v)", err)
	}
	reloaded, err := Load(path, am.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != mutated.Len() {
		t.Errorf("resaved len %d, want %d", reloaded.Len(), mutated.Len())
	}
}

// Save's error paths clean up: a failed create leaves nothing behind, and
// an unwritable directory surfaces the error instead of swallowing it.
func TestSaveErrorPathsCleanUp(t *testing.T) {
	tree, _ := buildTree(t, am.KindRTree, 300, 2, 1024)
	if err := Save("/nonexistent-dir/x.idx", tree); err == nil {
		t.Error("Save into a missing directory did not error")
	}
	// Saving over an existing index is atomic: open the old one paged,
	// save a new one over it, and the open handle still serves (POSIX
	// rename semantics — the old inode lives until closed).
	dir := t.TempDir()
	path := filepath.Join(dir, "over.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	paged, store, err := OpenPaged(path, am.Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.SearchCtxInto(context.Background(), paged, geom.Vector{50, 50}, 10, nil, nil); err != nil {
		t.Errorf("open handle broken by overwriting Save: %v", err)
	}
}

// Satellite: EvictAll racing active searches under -race. Pins must keep
// victims resident (searches stay correct), nothing deadlocks, and the
// counters stay consistent.
func TestEvictAllRacesActiveSearches(t *testing.T) {
	tree, _ := buildTree(t, am.KindXJB, 2000, 3, 2048)
	path := filepath.Join(t.TempDir(), "race.idx")
	if err := Save(path, tree); err != nil {
		t.Fatal(err)
	}
	paged, store, err := OpenPaged(path, am.Options{}, tree.NumPages()/4)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const searchers = 4
	const queriesPerSearcher = 40
	var wg sync.WaitGroup
	errCh := make(chan error, searchers)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesPerSearcher; i++ {
				q := geom.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
				want, err := nn.SearchCtxInto(context.Background(), tree, q, 25, nil, nil)
				if err != nil {
					errCh <- err
					return
				}
				got, err := nn.SearchCtxInto(context.Background(), paged, q, 25, nil, nil)
				if err != nil {
					errCh <- err
					return
				}
				for j := range want {
					if got[j].RID != want[j].RID || got[j].Dist2 != want[j].Dist2 {
						errCh <- fmt.Errorf("query %d result %d diverged under eviction", i, j)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			goto drained
		case err := <-errCh:
			t.Fatal(err)
		default:
			store.EvictAll()
		}
	}
drained:
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := store.PoolStats()
	if st.Pinned != 0 {
		t.Errorf("%d pages left pinned after all searches drained", st.Pinned)
	}
	if st.Misses == 0 {
		t.Error("eviction churn produced no misses — EvictAll not exercised")
	}
}
