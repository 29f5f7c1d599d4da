package blobindex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blobindex/internal/wal"
)

func onlineTestOptions() Options {
	return Options{Method: RTree, Dim: 3, PageSize: 2048}
}

func randKey(rng *rand.Rand, dim int) []float64 {
	k := make([]float64, dim)
	for i := range k {
		k[i] = rng.Float64()
	}
	return k
}

// knnRIDs runs one exact k-NN query and returns the result RIDs in order.
func knnRIDs(t *testing.T, ix *Index, q []float64, k int) []int64 {
	t.Helper()
	resp, err := ix.Search(context.Background(), SearchRequest{Query: q, K: k})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	rids := make([]int64, len(resp.Neighbors))
	for i, nb := range resp.Neighbors {
		rids[i] = nb.RID
	}
	return rids
}

// assertSameResults compares got's k-NN answers against a fault-free oracle
// index over the same live point set, over a deterministic query workload.
func assertSameResults(t *testing.T, oracle, got *Index, seed int64) {
	t.Helper()
	if o, g := oracle.Len(), got.Len(); o != g {
		t.Fatalf("Len: oracle %d, got %d", o, g)
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 20; trial++ {
		q := randKey(rng, oracle.opts.Dim)
		want, err := oracle.Search(context.Background(), SearchRequest{Query: q, K: 25})
		if err != nil {
			t.Fatalf("oracle search: %v", err)
		}
		have, err := got.Search(context.Background(), SearchRequest{Query: q, K: 25})
		if err != nil {
			t.Fatalf("recovered search: %v", err)
		}
		if len(want.Neighbors) != len(have.Neighbors) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(have.Neighbors), len(want.Neighbors))
		}
		for i := range want.Neighbors {
			w, h := want.Neighbors[i], have.Neighbors[i]
			if w.RID != h.RID || w.Dist != h.Dist {
				t.Fatalf("trial %d result %d: got (rid %d, dist %v), want (rid %d, dist %v)",
					trial, i, h.RID, h.Dist, w.RID, w.Dist)
			}
		}
	}
}

// oracleOver bulk-builds a fault-free reference index over the live set.
func oracleOver(t *testing.T, live map[int64][]float64) *Index {
	t.Helper()
	pts := make([]Point, 0, len(live))
	for rid, key := range live {
		pts = append(pts, Point{Key: key, RID: rid})
	}
	ix, err := Build(pts, onlineTestOptions())
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	return ix
}

// cloneDir copies every regular file of src into a fresh directory — the
// on-disk state a kill -9 at this instant would leave behind (the WAL is
// fsynced at every acknowledgement, so disk state == acknowledged state).
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestOnlineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateOnline(dir, onlineTestOptions(), OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	live := make(map[int64][]float64)
	for rid := int64(0); rid < 500; rid++ {
		key := randKey(rng, 3)
		if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
		live[rid] = key
	}
	// Delete a slice of the keyspace while everything is still in memory.
	for rid := int64(0); rid < 50; rid++ {
		ok, err := ix.Delete(live[rid], rid)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", rid, ok, err)
		}
		delete(live, rid)
	}

	oracle := oracleOver(t, live)
	defer oracle.Close()
	assertSameResults(t, oracle, ix, 42)

	// Seal + compact: same answers from the pagefile segment.
	if err := ix.SealActive(); err != nil {
		t.Fatal(err)
	}
	if err := ix.CompactPending(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, oracle, ix, 43)

	// Deletes against the sealed segment go through tombstones.
	for rid := int64(50); rid < 80; rid++ {
		ok, err := ix.Delete(live[rid], rid)
		if err != nil || !ok {
			t.Fatalf("tombstone delete %d: ok=%v err=%v", rid, ok, err)
		}
		delete(live, rid)
	}
	// A deleted RID absent everywhere acknowledges false.
	if ok, err := ix.Delete(randKey(rng, 3), 99999); err != nil || ok {
		t.Fatalf("absent delete: ok=%v err=%v", ok, err)
	}
	oracle2 := oracleOver(t, live)
	defer oracle2.Close()
	assertSameResults(t, oracle2, ix, 44)

	st, ok := ix.IngestStats()
	if !ok {
		t.Fatal("IngestStats: not online")
	}
	if st.FileSegments != 1 || st.Tombstones != 30 {
		t.Fatalf("stats: %+v", st)
	}

	// Full compaction applies the tombstones physically and clears them.
	if err := ix.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st, _ := ix.IngestStats(); st.Tombstones != 0 || st.PendingSegments != 0 {
		t.Fatalf("post-compact stats: %+v", st)
	}
	assertSameResults(t, oracle2, ix, 45)

	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the compacted state round-trips through the manifest.
	ix2, err := OpenOnline(dir, OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	assertSameResults(t, oracle2, ix2, 46)
}

// TestOnlineCrashRecovery snapshots the directory at seeded points of an
// ingest — mid-memory, post-seal, with tombstones pending — and asserts a
// reopen of each snapshot serves results byte-identical to a fault-free
// oracle over exactly the writes acknowledged before the snapshot. The WAL
// fsyncs on every acknowledgement, so a directory snapshot is the kill -9
// disk image.
func TestOnlineCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateOnline(dir, onlineTestOptions(), OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(7))
	live := make(map[int64][]float64)
	insert := func(rid int64) {
		key := randKey(rng, 3)
		if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
		live[rid] = key
	}
	remove := func(rid int64) {
		if ok, err := ix.Delete(live[rid], rid); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", rid, ok, err)
		}
		delete(live, rid)
	}

	for rid := int64(0); rid < 300; rid++ {
		insert(rid)
	}
	for rid := int64(0); rid < 20; rid++ {
		remove(rid)
	}

	// Crash point A: everything still in the first WAL, nothing sealed.
	crashA := cloneDir(t, dir)
	liveA := oracleOver(t, live)
	defer liveA.Close()

	if err := ix.SealActive(); err != nil {
		t.Fatal(err)
	}

	// Crash point B: sealed but not compacted — two WALs listed, no
	// segment file yet.
	crashB := cloneDir(t, dir)

	if err := ix.CompactPending(); err != nil {
		t.Fatal(err)
	}
	for rid := int64(300); rid < 400; rid++ {
		insert(rid)
	}
	for rid := int64(20); rid < 40; rid++ {
		remove(rid) // tombstones against the compacted segment
	}
	remove(350) // and a plain memory-segment delete

	// Crash point C: file segment + live WAL holding inserts and deletes.
	crashC := cloneDir(t, dir)
	liveC := oracleOver(t, live)
	defer liveC.Close()

	// Writes after the snapshot must NOT appear in the recovered indexes.
	for rid := int64(1000); rid < 1050; rid++ {
		insert(rid)
	}

	for name, tc := range map[string]struct {
		dir    string
		oracle *Index
	}{
		"mid-memory": {crashA, liveA},
		"post-seal":  {crashB, liveA},
		"tombstones": {crashC, liveC},
	} {
		rec, err := OpenOnline(tc.dir, OnlineOptions{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		assertSameResults(t, tc.oracle, rec, 99)
		// The recovered index keeps ingesting.
		if err := rec.Insert(Point{Key: []float64{0.5, 0.5, 0.5}, RID: 777777}); err != nil {
			t.Fatalf("%s: post-recovery insert: %v", name, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// TestOnlineTornTailAndJanitor damages a crash snapshot the way a real
// mid-write kill does — a torn frame at the WAL tail, a stray compaction
// temp file, an unreferenced segment file — and asserts recovery truncates
// and sweeps them while serving exactly the acknowledged writes.
func TestOnlineTornTailAndJanitor(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateOnline(dir, onlineTestOptions(), OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(11))
	live := make(map[int64][]float64)
	for rid := int64(0); rid < 250; rid++ {
		key := randKey(rng, 3)
		if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
			t.Fatal(err)
		}
		live[rid] = key
	}
	crash := cloneDir(t, dir)
	oracle := oracleOver(t, live)
	defer oracle.Close()

	// One more insert whose WAL frame is then torn mid-write: it was never
	// acknowledged, so recovery must serve the state without it.
	if err := ix.Insert(Point{Key: randKey(rng, 3), RID: 900}); err != nil {
		t.Fatal(err)
	}
	torn := cloneDir(t, dir)
	walPath := filepath.Join(torn, wal.FileName(1))
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	// Debris a crashed compaction leaves: a temp file and a segment file
	// the manifest does not list.
	for _, junk := range []string{"manifest.blob.tmp", "seg-000009.idx"} {
		if err := os.WriteFile(filepath.Join(torn, junk), []byte("partial garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Junk appended after the last complete frame — a crash mid-append that
	// got no further than a few bytes — rather than a frame cut short.
	images := map[string]string{"clean": crash, "torn": torn}
	for _, n := range []int{1, 8} {
		d := cloneDir(t, crash)
		f, err := os.OpenFile(filepath.Join(d, wal.FileName(1)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = byte(0xA5 ^ i)
		}
		if _, err := f.Write(junk); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		images[fmt.Sprintf("garbage-%d", n)] = d
	}

	for name, d := range images {
		rec, err := OpenOnline(d, OnlineOptions{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		assertSameResults(t, oracle, rec, 13)
		st, _ := rec.IngestStats()
		if name != "clean" && st.TornBytes == 0 {
			t.Fatalf("%s: damaged tail not detected", name)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, junk := range []string{"manifest.blob.tmp", "seg-000009.idx"} {
		if _, err := os.Stat(filepath.Join(torn, junk)); !os.IsNotExist(err) {
			t.Fatalf("janitor left %s behind (err=%v)", junk, err)
		}
	}
}

// TestOnlineConcurrentIngest runs WAL writers against k-NN and range
// readers across live seal/compact cycles (run under -race by make race /
// CI). Readers assert prefix-consistency: every result RID was acknowledged
// by a writer before the query returned, with no duplicates within one
// result set — and every reader must have run during the ingest.
func TestOnlineConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateOnline(dir, onlineTestOptions(), OnlineOptions{SealThreshold: 150})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 250
	var acked sync.Map // rid -> key, set just before the write can become visible
	var writeWG, readWG sync.WaitGroup
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWriter; i++ {
				rid := int64(w*10000 + i)
				key := randKey(rng, 3)
				// Mark before inserting: a reader may observe the write
				// the instant Insert applies it, before Insert returns.
				acked.Store(rid, key)
				if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
					t.Errorf("insert %d: %v", rid, err)
					return
				}
				if i%10 == 9 {
					// Delete an earlier write of this writer; readers only
					// check positives, so no un-mark is needed.
					victim := int64(w*10000 + i - 5)
					v, _ := acked.Load(victim)
					if _, err := ix.Delete(v.([]float64), victim); err != nil {
						t.Errorf("delete %d: %v", victim, err)
						return
					}
				}
			}
		}(w)
	}

	// queries[r] counts reader r's completed queries, each begun before done
	// closed; a slot is written only by its reader and read after
	// readWG.Wait.
	var queries [2]int
	for r := range queries {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for ; ; queries[r]++ {
				select {
				case <-done:
					return
				default:
				}
				q := randKey(rng, 3)
				var nbs []Neighbor
				if r == 0 {
					resp, err := ix.Search(context.Background(), SearchRequest{Query: q, K: 20})
					if err != nil && err != ErrEmptyIndex {
						t.Errorf("reader knn: %v", err)
						return
					}
					nbs = resp.Neighbors
				} else {
					resp, err := ix.Search(context.Background(), SearchRequest{Query: q, Radius: 0.3})
					if err != nil && err != ErrEmptyIndex {
						t.Errorf("reader range: %v", err)
						return
					}
					nbs = resp.Neighbors
				}
				seen := make(map[int64]bool, len(nbs))
				for _, nb := range nbs {
					if seen[nb.RID] {
						t.Errorf("duplicate rid %d in one result set", nb.RID)
						return
					}
					seen[nb.RID] = true
					if _, ok := acked.Load(nb.RID); !ok {
						t.Errorf("result rid %d was never written", nb.RID)
						return
					}
				}
			}
		}(r)
	}

	// Writers finish first; then stop the readers.
	writeWG.Wait()
	close(done)
	readWG.Wait()
	for r, n := range queries {
		if n == 0 {
			t.Errorf("reader %d completed no query during the ingest", r)
		}
	}

	// Settle maintenance, then verify the final state exactly.
	if err := ix.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st, _ := ix.IngestStats()
	if st.Seals == 0 {
		t.Fatalf("no seal happened during the run (threshold ineffective): %+v", st)
	}
	wantLen := writers * (perWriter - perWriter/10)
	if ix.Len() != wantLen {
		t.Fatalf("final Len %d, want %d", ix.Len(), wantLen)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// And the whole run's acknowledged state survives a reopen.
	rec, err := OpenOnline(dir, OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != wantLen {
		t.Fatalf("recovered Len %d, want %d", rec.Len(), wantLen)
	}
}

// TestOnlineSaveEquivalence pins Save on a multi-segment online index: it
// writes the bulk load of the live points, tombstones applied, and Open
// serves that file with answers identical to a fresh Build over them.
func TestOnlineSaveEquivalence(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateOnline(dir, onlineTestOptions(), OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	live := make(map[int64][]float64)
	for rid := int64(0); rid < 400; rid++ {
		key := randKey(rng, 3)
		if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
			t.Fatal(err)
		}
		live[rid] = key
	}
	if err := ix.SealActive(); err != nil {
		t.Fatal(err)
	}
	for rid := int64(400); rid < 450; rid++ {
		key := randKey(rng, 3)
		if err := ix.Insert(Point{Key: key, RID: rid}); err != nil {
			t.Fatal(err)
		}
		live[rid] = key
	}
	for rid := int64(0); rid < 30; rid++ {
		if ok, err := ix.Delete(live[rid], rid); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", rid, ok, err)
		}
		delete(live, rid)
	}

	path := filepath.Join(t.TempDir(), "saved.idx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	// Save leaves the directory as it was: nothing compacted.
	if st, _ := ix.IngestStats(); st.FullCompactions != 0 || st.PendingSegments != 1 || st.Tombstones != 30 {
		t.Fatalf("Save reorganized the index: %+v", st)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	saved, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer saved.Close()
	oracle := oracleOver(t, live)
	defer oracle.Close()
	assertSameResults(t, oracle, saved, 31)
}

// TestOnlineIteratorMergesSegments drains a multi-segment incremental scan
// and checks it yields the same global distance order a one-shot k-NN
// reports.
func TestOnlineIteratorMergesSegments(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateOnline(dir, onlineTestOptions(), OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(77))
	for rid := int64(0); rid < 300; rid++ {
		if err := ix.Insert(Point{Key: randKey(rng, 3), RID: rid}); err != nil {
			t.Fatal(err)
		}
		if rid == 150 {
			if err := ix.SealActive(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st, _ := ix.IngestStats(); st.PendingSegments != 1 {
		t.Fatalf("want one pending segment, stats %+v", st)
	}

	q := []float64{0.4, 0.6, 0.5}
	want := knnRIDs(t, ix, q, 40)
	it := ix.SearchIter(q)
	var prev float64
	for i, wantRID := range want {
		nb, ok := it.Next()
		if !ok {
			t.Fatalf("iterator exhausted at %d", i)
		}
		if nb.RID != wantRID {
			t.Fatalf("iterator result %d: rid %d, want %d", i, nb.RID, wantRID)
		}
		if nb.Dist < prev {
			t.Fatalf("iterator went backwards at %d: %v < %v", i, nb.Dist, prev)
		}
		prev = nb.Dist
	}
	// NextWithin honors the radius bound across the merged heads and stays
	// resumable.
	it2 := ix.SearchIter(q)
	if _, ok := it2.NextWithin(0); ok {
		t.Fatal("NextWithin(0) yielded a result")
	}
	if nb, ok := it2.NextWithin(10); !ok || nb.RID != want[0] {
		t.Fatalf("resumed NextWithin: ok=%v rid=%v, want %d", ok, nb.RID, want[0])
	}
}

// TestSearchIterReportsCorruptPage drains SearchIter over demand-paged
// indexes with one flipped byte in a node page: the scan stops early and
// Err reports ErrStorageCorrupt, where an exhausted index reports nil. Both
// the single-file scan and the merged scan of a multi-segment online index
// are covered.
func TestSearchIterReportsCorruptPage(t *testing.T) {
	opts := onlineTestOptions()
	q := []float64{0.5, 0.5, 0.5}
	// drain counts the neighbors a full scan yields; a failed scan must
	// stop for good, yielding nothing once Err is set.
	drain := func(t *testing.T, ix *Index) (int, error) {
		it := ix.SearchIter(q)
		n := 0
		for {
			failed := it.Err() != nil
			if _, ok := it.Next(); !ok {
				return n, it.Err()
			}
			if failed {
				t.Fatalf("neighbor %d yielded after the scan failed", n)
			}
			n++
		}
	}
	// flip damages one payload byte of the file's first node page (page 0
	// is the header), so that page's CRC no longer matches.
	flip := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[opts.PageSize+100] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, open func() (*Index, error), damage func(), total int) {
		t.Helper()
		clean, err := open()
		if err != nil {
			t.Fatal(err)
		}
		n, err := drain(t, clean)
		clean.Close()
		if err != nil || n != total {
			t.Fatalf("clean file: drained %d of %d, Err %v", n, total, err)
		}
		damage()
		bad, err := open()
		if err != nil {
			t.Fatal(err)
		}
		defer bad.Close()
		n, err = drain(t, bad)
		if !errors.Is(err, ErrStorageCorrupt) {
			t.Fatalf("corrupt page: Err %v, want ErrStorageCorrupt", err)
		}
		if n >= total {
			t.Fatalf("corrupt page: drained all %d points", n)
		}
	}
	rng := rand.New(rand.NewSource(31))

	t.Run("file", func(t *testing.T) {
		pts := make([]Point, 600)
		for i := range pts {
			pts[i] = Point{Key: randKey(rng, 3), RID: int64(i)}
		}
		ix, err := Build(pts, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ix.idx")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		check(t, func() (*Index, error) { return Open(path) }, func() { flip(path) }, len(pts))
	})

	t.Run("segments", func(t *testing.T) {
		dir := t.TempDir()
		ix, err := CreateOnline(dir, opts, OnlineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const total = 300
		for rid := int64(0); rid < total; rid++ {
			if err := ix.Insert(Point{Key: randKey(rng, 3), RID: rid}); err != nil {
				t.Fatal(err)
			}
			if rid == total/2 {
				if err := ix.SealActive(); err != nil {
					t.Fatal(err)
				}
				if err := ix.CompactPending(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segment files %v, err %v; want one", segs, err)
		}
		open := func() (*Index, error) { return OpenOnline(dir, OnlineOptions{}) }
		check(t, open, func() { flip(segs[0]) }, total)
	})
}

// TestOnlineTightenDuringSeal interleaves Insert and Tighten on an online
// index whose background maintenance seals every 16 points. Tighten must
// reach the active segment under the writer lock: a seal swaps that segment
// out, and under -race an unlocked read of it is reported.
func TestOnlineTightenDuringSeal(t *testing.T) {
	ix, err := CreateOnline(t.TempDir(), onlineTestOptions(), OnlineOptions{SealThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(5))
	const n = 2000
	for rid := int64(0); rid < n; rid++ {
		if err := ix.Insert(Point{Key: randKey(rng, 3), RID: rid}); err != nil {
			t.Fatalf("insert %d: %v", rid, err)
		}
		if err := ix.Tighten(); err != nil {
			t.Fatalf("tighten after %d: %v", rid, err)
		}
	}
	if err := ix.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Len(); got != n {
		t.Fatalf("Len %d, want %d", got, n)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

// CreateOnline refuses a page size its seals could not write. An in-memory
// tree clamps a node's fan-out to 2 whatever the page holds, but every seal
// writes a pagefile, whose node page is an 8-byte header plus the entries:
// XJB's 3-d inner entries overflow it at 256 and 512 bytes, JB's at 256.
// Every accepted configuration seals and compacts 300 points.
func TestCreateOnlineRejectsPagesSealsCannotWrite(t *testing.T) {
	cases := []struct {
		method   Method
		pageSize int
		ok       bool
	}{
		{XJB, 256, false},
		{XJB, 512, false},
		{JB, 256, false},
		{JB, 512, true}, // clamped by page.Capacity, but 8 + 2·248 ≤ 512 encodes
		{RTree, 256, true},
		{RTree, 512, true},
		{RTree, 1024, true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.method, c.pageSize), func(t *testing.T) {
			ix, err := CreateOnline(t.TempDir(), Options{Method: c.method, Dim: 3, PageSize: c.pageSize}, OnlineOptions{})
			if !c.ok {
				if !errors.Is(err, ErrInvalidOptions) {
					t.Fatalf("CreateOnline: %v, want ErrInvalidOptions", err)
				}
				t.Log(err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			rng := rand.New(rand.NewSource(1))
			for rid := int64(0); rid < 300; rid++ {
				if err := ix.Insert(Point{Key: randKey(rng, 3), RID: rid}); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.SealActive(); err != nil {
				t.Fatal(err)
			}
			if err := ix.CompactPending(); err != nil {
				t.Fatal(err)
			}
			if n := ix.Len(); n != 300 {
				t.Fatalf("%d points after compaction, want 300", n)
			}
		})
	}
}
