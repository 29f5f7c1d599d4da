package server

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"blobindex"
)

// resultCache is the serving layer's sharded LRU result cache. Entries are
// keyed by the full request signature (see searchKey), so two requests that
// would send the same response share one cached result. Sharding keeps
// the per-lookup critical section short under the 64-plus-client
// concurrency the server is sized for; each shard is an independent
// mutex-protected LRU.
//
// Invalidation is generational: every write to the index bumps the cache
// generation, and lookups discard (and count) entries stamped with an older
// generation instead of scanning the shards eagerly. A cached result
// therefore never survives an Insert/Delete/Tighten, but writes stay O(1).
//
// A value is a response's encoded neighbours array (wire.AppendNeighbors),
// so a hit copies bytes instead of encoding again. Values are shared between
// concurrent responses and must be treated as immutable by everyone who
// receives them.
type resultCache struct {
	shards []cacheShard
	gen    atomic.Uint64 // current write generation
	seed   maphash.Seed

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64 // stale-generation entries discarded at lookup
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	gen uint64
	val []byte
}

// newResultCache builds a cache holding up to entries results across shards
// (shards is rounded up to at least 1; entries < shards still yields one
// slot per shard). entries <= 0 returns a disabled cache that misses every
// lookup and stores nothing.
func newResultCache(entries, shards int) *resultCache {
	c := &resultCache{seed: maphash.MakeSeed()}
	if entries <= 0 {
		return c
	}
	if shards <= 0 {
		shards = 1
	}
	if shards > entries {
		shards = entries
	}
	per := (entries + shards - 1) / shards
	c.shards = make([]cacheShard, shards)
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: per, m: make(map[string]*list.Element), lru: list.New()}
	}
	return c
}

func (c *resultCache) enabled() bool { return len(c.shards) > 0 }

func (c *resultCache) shard(key string) *cacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// get returns the cached neighbours array for key, or ok == false on a
// miss. A hit stamped with an older generation than the current one counts
// as both an invalidation and a miss: the entry is dropped and the caller
// recomputes.
func (c *resultCache) get(key string) ([]byte, bool) {
	if !c.enabled() {
		c.misses.Add(1)
		return nil, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != c.gen.Load() {
		sh.lru.Remove(el)
		delete(sh.m, key)
		sh.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	val := ent.val // under the lock: put may replace it
	sh.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// put stores a computed result stamped with gen, the generation the caller
// read (via generation()) *before* running the index search, evicting the
// shard's least-recently-used entry if it is full. Stamping the pre-search
// generation is what makes invalidation sound: a result computed before a
// concurrent write bumped the generation carries the old stamp, so it is
// either dropped here or discarded by its next lookup — it is never served
// as fresh. Stamping the current generation instead would let a search that
// raced a write cache its pre-write answer indefinitely.
func (c *resultCache) put(key string, val []byte, gen uint64) {
	if !c.enabled() {
		return
	}
	if gen != c.gen.Load() {
		// A write landed while the search ran; the result may predate it.
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.gen, ent.val = gen, val
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	sh.m[key] = sh.lru.PushFront(&cacheEntry{key: key, gen: gen, val: val})
	var evicted int64
	for sh.lru.Len() > sh.cap {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.m, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// invalidate marks every currently cached result stale. Called after each
// successful Insert/Delete/Tighten; stale entries are reclaimed lazily by
// the lookups that encounter them.
func (c *resultCache) invalidate() {
	c.gen.Add(1)
}

// generation reads the current write generation. Callers snapshot it before
// running an index search and hand it back to put, so results that raced a
// write are stamped with the generation they were actually computed under.
func (c *resultCache) generation() uint64 {
	return c.gen.Load()
}

// entries counts currently resident entries (including not-yet-reclaimed
// stale ones) across shards.
func (c *resultCache) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// capacity is the configured total entry budget.
func (c *resultCache) capacity() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// CacheStats is the cache section of the server's /v1/stats payload.
type CacheStats struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	Entries       int     `json:"entries"`
	Capacity      int     `json:"capacity"`
	HitRate       float64 `json:"hit_rate"`
}

func (c *resultCache) stats() CacheStats {
	s := CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.entries(),
		Capacity:      c.capacity(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// quantum is the cache key's coordinate resolution: coordinates (and range
// radii) are snapped to multiples of 2^-16 ≈ 1.5e-5 before keying, so two
// float queries that differ only in sub-quantum noise share a cache line
// and a single-flight slot. The indexed Blobworld features span roughly
// [-10, 10] after SVD, which makes the quantum far below any meaningful
// feature distance.
const quantum = 1 << 16

// searchKey builds the cache/coalescing key for one search request, binary
// packed: access method, k, quantized radius (range only), the refine flag
// with its effective candidate multiplier, whether the response carries
// keys, and the quantized query vector. The same key feeds both the result
// cache and the single-flight group, so "identical query" means the same
// thing in both layers. Refined and unrefined searches over the same query
// never share a key — their result sets differ in membership, order and
// metric — and neither do refined searches at different effective
// multipliers, nor requests with and without include_keys, since a cache
// entry holds the encoded response.
func searchKey(method blobindex.Method, req blobindex.SearchRequest, includeKeys bool) string {
	b := make([]byte, 0, len(method)+1+8+8+1+8+8*len(req.Query))
	b = append(b, method...)
	b = append(b, 0) // method/terminator so "jb"+k cannot collide with "xjb"
	b = binary.LittleEndian.AppendUint64(b, uint64(req.K))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(math.Round(req.Radius*quantum))))
	var flags byte
	if req.Refine {
		flags |= 1
	}
	if includeKeys {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Multiplier))
	for _, v := range req.Query {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(math.Round(v*quantum))))
	}
	return string(b)
}
