package page

import (
	"sync"
	"sync/atomic"
	"testing"
)

// pinLoad drives the canonical miss path: Pin, and on a miss Insert a
// placeholder value, mirroring what a file-backed node store does.
func pinLoad(p *PinnedPool, id PageID) {
	if _, ok := p.Pin(id); !ok {
		p.Insert(id, int(id))
	}
}

func TestPinnedPoolLRUEviction(t *testing.T) {
	p := NewPinnedPool(2)
	pinLoad(p, 1)
	p.Unpin(1)
	pinLoad(p, 2)
	p.Unpin(2)
	pinLoad(p, 3) // evicts 1 (least recently used)
	p.Unpin(3)

	if _, ok := p.Pin(2); !ok {
		t.Fatal("page 2 should still be resident")
	}
	p.Unpin(2)
	if _, ok := p.Pin(1); ok {
		t.Fatal("page 1 should have been evicted")
	}
	p.Insert(1, 1)
	p.Unpin(1)

	st := p.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (pages 1 then 3)", st.Evictions)
	}
	if st.Resident != 2 {
		t.Errorf("resident = %d, want 2", st.Resident)
	}
}

func TestPinnedPoolPinsBlockEviction(t *testing.T) {
	p := NewPinnedPool(1)
	pinLoad(p, 1) // pinned
	pinLoad(p, 2) // pool overflows: 1 is pinned, cannot evict
	st := p.Stats()
	if st.Resident != 2 || st.Pinned != 2 {
		t.Fatalf("resident=%d pinned=%d, want 2/2 (transient overflow)", st.Resident, st.Pinned)
	}
	p.Unpin(2) // shrinks back: 2 becomes the only evictable frame
	if got := p.Stats().Resident; got != 1 {
		t.Fatalf("resident = %d after unpin, want 1", got)
	}
	if _, ok := p.Pin(1); !ok {
		t.Fatal("pinned page 1 must never be evicted")
	}
	p.Unpin(1)
	p.Unpin(1)
}

func TestPinnedPoolDoublePinAndValueStability(t *testing.T) {
	p := NewPinnedPool(4)
	p.Insert(7, "seven")
	v, ok := p.Pin(7)
	if !ok || v.(string) != "seven" {
		t.Fatalf("Pin(7) = %v, %v", v, ok)
	}
	// Racing Insert keeps the first value.
	if got := p.Insert(7, "other"); got.(string) != "seven" {
		t.Fatalf("racing Insert returned %v, want the resident value", got)
	}
	p.Unpin(7)
	p.Unpin(7)
	p.Unpin(7)
	if st := p.Stats(); st.Pinned != 0 || st.Resident != 1 {
		t.Fatalf("pinned=%d resident=%d, want 0/1", st.Pinned, st.Resident)
	}
}

func TestPinnedPoolZeroCapacityIsCold(t *testing.T) {
	p := NewPinnedPool(0)
	for i := 0; i < 3; i++ {
		pinLoad(p, 42)
		p.Unpin(42)
	}
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Errorf("hits=%d misses=%d, want 0/3 at capacity 0", st.Hits, st.Misses)
	}
	if st.Resident != 0 {
		t.Errorf("resident=%d, want 0", st.Resident)
	}
}

func TestPinnedPoolEvictAllAndReset(t *testing.T) {
	p := NewPinnedPool(8)
	for id := PageID(0); id < 4; id++ {
		pinLoad(p, id)
	}
	p.Unpin(0)
	p.Unpin(1)
	p.EvictAll() // drops 0 and 1; 2 and 3 stay pinned
	st := p.Stats()
	if st.Resident != 2 || st.Pinned != 2 {
		t.Fatalf("resident=%d pinned=%d after EvictAll, want 2/2", st.Resident, st.Pinned)
	}
	if st.Evictions != 0 {
		t.Errorf("EvictAll must not count as evictions, got %d", st.Evictions)
	}
	p.ResetStats()
	if st := p.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("ResetStats left hits=%d misses=%d", st.Hits, st.Misses)
	}
	p.Unpin(2)
	p.Unpin(3)
}

func TestPinnedPoolConcurrent(t *testing.T) {
	p := NewPinnedPool(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := PageID((i * (w + 1)) % 64)
				pinLoad(p, id)
				p.Unpin(id)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Pinned != 0 {
		t.Errorf("pinned = %d after all workers unpinned, want 0", st.Pinned)
	}
	if st.Resident > 16 {
		t.Errorf("resident = %d exceeds capacity %d at rest", st.Resident, st.Capacity)
	}
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestPinnedPoolCounterConsistencyUnderChurn is the accounting contract
// under adversarial concurrency (run with -race, as make check does): with
// workers hammering overlapping id ranges — including double pins, racing
// loads of the same page and periodic EvictAlls — every Pin call
// still lands in exactly one of Hits or Misses, and residency never
// exceeds the frame budget beyond what pinned frames force. A concurrent
// observer checks the occupancy invariant mid-churn, not just at rest.
func TestPinnedPoolCounterConsistencyUnderChurn(t *testing.T) {
	const (
		capacity = 24
		workers  = 8
		iters    = 2000
		idSpace  = 96 // 4× capacity: constant eviction pressure
	)
	p := NewPinnedPool(capacity)
	var lookups atomic.Int64

	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			// Eviction runs until the pool fits its capacity or only pinned
			// frames remain, so a consistent snapshot can never show more
			// residents than max(capacity, pinned).
			limit := st.Capacity
			if st.Pinned > limit {
				limit = st.Pinned
			}
			if st.Resident > limit {
				t.Errorf("mid-churn: resident %d > max(capacity %d, pinned %d)",
					st.Resident, st.Capacity, st.Pinned)
				return
			}
			if st.Pinned > workers*2 {
				t.Errorf("mid-churn: pinned %d exceeds the %d pins workers can hold", st.Pinned, workers*2)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 1
			next := func(n int) PageID {
				rng = rng*6364136223846793005 + 1442695040888963407
				return PageID((rng >> 33) % uint64(n))
			}
			for i := 0; i < iters; i++ {
				id := next(idSpace)
				lookups.Add(1)
				if _, ok := p.Pin(id); !ok {
					p.Insert(id, int(id))
				}
				switch i % 7 {
				case 0:
					// Double pin: a second traversal holding the same page.
					id2 := next(idSpace)
					lookups.Add(1)
					if _, ok := p.Pin(id2); !ok {
						p.Insert(id2, int(id2))
					}
					p.Unpin(id2)
				case 5:
					if w == 0 {
						p.EvictAll() // cold restarts aren't counted either
					}
				}
				p.Unpin(id)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	observer.Wait()

	st := p.Stats()
	if got, want := st.Hits+st.Misses, lookups.Load(); got != want {
		t.Errorf("hits(%d)+misses(%d) = %d, want exactly %d Pin calls",
			st.Hits, st.Misses, got, want)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate churn: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Pinned != 0 {
		t.Errorf("pinned = %d after all workers finished, want 0", st.Pinned)
	}
	if st.Resident > capacity {
		t.Errorf("resident = %d exceeds capacity %d at rest", st.Resident, capacity)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions despite id space %d over capacity %d", idSpace, capacity)
	}
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	b := NewBufferPool(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Access(PageID((i * (w + 1)) % 100))
			}
		}(w)
	}
	wg.Wait()
	if got := b.Hits() + b.Misses(); got != 8*500 {
		t.Errorf("hits+misses = %d, want %d", got, 8*500)
	}
}

// TestPinnedPoolEvictHook pins down which departures hand a value to the
// evict hook — every one that leaves the value unreachable through the pool
// while nobody has it pinned — and that a pinned frame's value never is: its
// holders are still reading it.
func TestPinnedPoolEvictHook(t *testing.T) {
	p := NewPinnedPool(2)
	var got []*int
	p.SetEvictHook(func(v any) { got = append(got, v.(*int)) })
	vals := make([]*int, 8)
	load := func(id PageID) {
		vals[id] = new(int)
		p.Insert(id, vals[id])
	}
	expect := func(what string, ids ...PageID) {
		t.Helper()
		if len(got) != len(ids) {
			t.Fatalf("%s: hook saw %d values, want %d", what, len(got), len(ids))
		}
		for i, id := range ids {
			if got[i] != vals[id] {
				t.Fatalf("%s: hook value %d is not page %d's", what, i, id)
			}
		}
		got = got[:0]
	}

	load(1)
	load(2)
	load(3) // over capacity, but all three are pinned
	expect("all pinned")
	p.Unpin(1) // the overflow shrinks as soon as a frame is evictable
	expect("capacity eviction on Unpin", 1)
	p.Unpin(2)
	load(4) // evicts 2, the only unpinned frame
	expect("capacity eviction on Insert", 2)

	p.Unpin(3)
	p.Unpin(4)
	load(5) // evicts 3, the least recently used
	load(6) // evicts 4
	expect("capacity eviction in LRU order", 3, 4)
	p.Unpin(5)
	p.EvictAll() // drops 5, keeps the pinned 6
	expect("EvictAll", 5)
	if _, ok := p.Pin(6); !ok {
		t.Fatal("EvictAll dropped a pinned frame")
	}

	// A value that lost the Insert race never entered the pool: it is the
	// caller's to reuse, the hook is not told.
	loser := new(int)
	if v := p.Insert(6, loser); v.(*int) != vals[6] {
		t.Fatal("Insert over a resident page did not return the resident value")
	}
	expect("lost Insert race")
}

// TestPinnedPoolMissAllocatesNothing checks the steady state of a pool
// cycling through more pages than it holds: each miss reuses the bookkeeping
// of the frame it evicts.
func TestPinnedPoolMissAllocatesNothing(t *testing.T) {
	p := NewPinnedPool(4)
	vals := make([]any, 16)
	for i := range vals {
		vals[i] = new(int)
	}
	id := 0
	miss := func() {
		pid := PageID(id % len(vals))
		id++
		if _, ok := p.Pin(pid); ok {
			t.Fatal("a 16-page cycle through 4 frames should never hit")
		}
		p.Insert(pid, vals[pid])
		p.Unpin(pid)
	}
	for i := 0; i < 64; i++ {
		miss()
	}
	if avg := testing.AllocsPerRun(1000, miss); avg != 0 {
		t.Errorf("steady-state miss: %.2f allocs/op, want 0", avg)
	}
}
