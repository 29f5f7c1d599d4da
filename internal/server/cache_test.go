package server

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobindex"
)

// res is a stand-in cached value: an encoded neighbours array.
func res(rid int64) []byte {
	return fmt.Appendf(nil, `[{"rid":%d}]`, rid)
}

// knnKey keys an unrefined, keys-less k-NN request.
func knnKey(method blobindex.Method, k int, q ...float64) string {
	return searchKey(method, blobindex.SearchRequest{Query: q, K: k}, false)
}

func TestCacheHitMissEvict(t *testing.T) {
	c := newResultCache(4, 1) // one shard so LRU order is global
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = knnKey(blobindex.XJB, 10, float64(i))
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.get(keys[i]); ok {
			t.Fatalf("empty cache hit for key %d", i)
		}
		c.put(keys[i], res(int64(i)), c.generation())
	}
	for i := 0; i < 4; i++ {
		v, ok := c.get(keys[i])
		if !ok || !bytes.Equal(v, res(int64(i))) {
			t.Fatalf("key %d: ok=%v v=%s", i, ok, v)
		}
	}
	// The gets touched 0..3 in order, so key 0 is least recently used;
	// inserting a fifth entry evicts it and keeps the rest.
	c.put(keys[4], res(4), c.generation())
	if _, ok := c.get(keys[0]); ok {
		t.Error("expected key 0 evicted (LRU after the get sequence)")
	}
	for i := 1; i < 5; i++ {
		if _, ok := c.get(keys[i]); !ok {
			t.Errorf("expected key %d resident", i)
		}
	}
	s := c.stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 4 || s.Capacity != 4 {
		t.Errorf("entries/capacity = %d/%d, want 4/4", s.Entries, s.Capacity)
	}
	if s.Hits+s.Misses == 0 || s.HitRate <= 0 {
		t.Errorf("stats not counting: %+v", s)
	}
}

func TestCacheInvalidateGeneration(t *testing.T) {
	c := newResultCache(8, 2)
	key := knnKey(blobindex.JB, 5, 1, 2)
	c.put(key, res(1), c.generation())
	if _, ok := c.get(key); !ok {
		t.Fatal("miss before invalidation")
	}
	c.invalidate()
	if _, ok := c.get(key); ok {
		t.Fatal("hit after invalidation")
	}
	if got := c.stats().Invalidations; got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
	// The slot was reclaimed lazily; re-fill works.
	c.put(key, res(2), c.generation())
	if v, ok := c.get(key); !ok || !bytes.Equal(v, res(2)) {
		t.Errorf("re-fill after invalidation: ok=%v v=%s", ok, v)
	}
}

// TestCachePutRacingWrite pins the invalidation soundness contract: a search
// result computed before a write landed (its generation snapshot predates
// the invalidate) must never be served as fresh, even though put ran after
// the invalidate.
func TestCachePutRacingWrite(t *testing.T) {
	c := newResultCache(8, 2)
	key := knnKey(blobindex.XJB, 5, 3, 4)
	gen := c.generation() // search starts here...
	c.invalidate()        // ...a delete completes while it runs...
	c.put(key, res(1), gen)
	if _, ok := c.get(key); ok { // ...so the pre-write result must not hit
		t.Fatal("pre-write result served as fresh after invalidation")
	}
	// A result computed under the current generation still caches normally,
	// including overwriting the same key.
	c.put(key, res(2), c.generation())
	if v, ok := c.get(key); !ok || !bytes.Equal(v, res(2)) {
		t.Errorf("post-write re-fill: ok=%v v=%s", ok, v)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0, 4)
	key := knnKey(blobindex.XJB, 1, 1)
	c.put(key, res(1), c.generation())
	if _, ok := c.get(key); ok {
		t.Error("disabled cache returned a hit")
	}
	if s := c.stats(); s.Capacity != 0 || s.Entries != 0 {
		t.Errorf("disabled cache stats = %+v", s)
	}
}

func TestSearchKeyQuantization(t *testing.T) {
	q := []float64{1.5, -2.25}
	req := blobindex.SearchRequest{Query: q, K: 10}
	base := searchKey(blobindex.XJB, req, false)
	if same := knnKey(blobindex.XJB, 10, 1.5+1e-9, -2.25); base != same {
		t.Error("sub-quantum perturbation changed the key")
	}
	for name, other := range map[string]string{
		"different k":      knnKey(blobindex.XJB, 11, q...),
		"different method": knnKey(blobindex.JB, 10, q...),
		"range":            searchKey(blobindex.XJB, blobindex.SearchRequest{Query: q, Radius: 3.5}, false),
		"different coord":  knnKey(blobindex.XJB, 10, 1.25, -2.25),
		"refined":          searchKey(blobindex.XJB, blobindex.SearchRequest{Query: q, K: 10, Refine: true, Multiplier: 6}, false),
		"different mult":   searchKey(blobindex.XJB, blobindex.SearchRequest{Query: q, K: 10, Refine: true, Multiplier: 3}, false),
		"include keys":     searchKey(blobindex.XJB, req, true),
	} {
		if other == base {
			t.Errorf("%s produced an identical key", name)
		}
	}
}

func TestCacheConcurrentChurn(t *testing.T) {
	c := newResultCache(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := knnKey(blobindex.XJB, i%32, float64(g%3))
				if _, ok := c.get(key); !ok {
					c.put(key, res(int64(i)), c.generation())
				}
				if i%100 == 0 && g == 0 {
					c.invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.stats()
	if s.Entries > s.Capacity {
		t.Errorf("entries %d exceed capacity %d", s.Entries, s.Capacity)
	}
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d lookups", s.Hits+s.Misses, 8*500)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := &histogram{}
	// 100 samples: 90 at ~1ms, 9 at ~10ms, 1 at 100ms.
	for i := 0; i < 90; i++ {
		h.observe(time.Millisecond, false)
	}
	for i := 0; i < 9; i++ {
		h.observe(10*time.Millisecond, false)
	}
	h.observe(100*time.Millisecond, true)
	s := h.summary()
	if s.Count != 100 || s.Errors != 1 {
		t.Fatalf("count/errors = %d/%d", s.Count, s.Errors)
	}
	if s.MaxUs != 100000 {
		t.Errorf("max = %v µs, want 100000", s.MaxUs)
	}
	within := func(got, want, tol float64) bool { return got >= want/tol && got <= want*tol }
	// Bucket resolution is ~19%; allow a generous 1.3× band.
	if !within(s.P50Us, 1000, 1.3) {
		t.Errorf("p50 = %v µs, want ≈1000", s.P50Us)
	}
	if !within(s.P95Us, 10000, 1.3) {
		t.Errorf("p95 = %v µs, want ≈10000", s.P95Us)
	}
	if !within(s.P99Us, 10000, 1.3) {
		t.Errorf("p99 = %v µs, want ≈10000 (99th of 100 samples)", s.P99Us)
	}
	if s.MeanUs <= 0 || s.P50Us > s.P95Us || s.P95Us > s.P99Us || s.P99Us > s.MaxUs {
		t.Errorf("summary not monotone: %+v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &histogram{}
	s := h.summary()
	if s.Count != 0 || s.P99Us != 0 || s.MaxUs != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(2, 1, 50*time.Millisecond)
	ctxBg := context.Background()
	if err := a.acquire(ctxBg); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctxBg); err != nil {
		t.Fatal(err)
	}
	// Both slots held: the next caller waits and times out.
	start := time.Now()
	if err := a.acquire(ctxBg); err != ErrQueueTimeout {
		t.Fatalf("third acquire err = %v, want ErrQueueTimeout", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("timeout fired too early")
	}
	// Queue slot is free again after the timeout; occupy it, then overflow.
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctxBg) }()
	waitForUnit(t, func() bool { return a.queued.Load() == 1 })
	if err := a.acquire(ctxBg); err != ErrQueueFull {
		t.Fatalf("overflow acquire err = %v, want ErrQueueFull", err)
	}
	a.release() // frees a slot for the queued waiter
	if err := <-done; err != nil {
		t.Fatalf("queued waiter err = %v", err)
	}
	s := a.stats()
	if s.Admitted != 3 || s.RejectedFull != 1 || s.RejectedTimeout != 1 {
		t.Errorf("stats = %+v", s)
	}
	a.release()
	a.release()
	if got := a.inFlight.Load(); got != 0 {
		t.Errorf("inFlight after releases = %d", got)
	}
}

func waitForUnit(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func ExampleCacheStats() {
	c := newResultCache(2, 1)
	k := knnKey(blobindex.XJB, 3, 1)
	c.put(k, res(42), c.generation())
	_, hit := c.get(k)
	fmt.Println(hit)
	// Output: true
}
