package page

import "sync"

// PoolStats is a snapshot of a PinnedPool's traffic counters and occupancy.
// Pages enter the pool only through a Pin's miss, so Misses equals the
// real page reads the access pattern caused — the number the pagedio
// cross-check compares with the amdb simulation's I/Os. Retries and GaveUp
// are zero for the pool itself; file-backed stores that retry transient
// page reads (pagefile.Store) fill them in when reporting their stats
// through this type.
type PoolStats struct {
	Hits      int64 // accesses served from a resident frame
	Misses    int64 // accesses that had to load the page: one real read each
	Evictions int64 // frames evicted to make room (EvictAll is not counted)
	Retries   int64 // page re-reads after a transient failure (store-level)
	GaveUp    int64 // loads that exhausted the retry budget (store-level)

	Resident int // frames currently held (pinned + unpinned)
	Pinned   int // frames with a positive pin count
	Capacity int // configured frame budget
}

// Sub returns the counter deltas s−before (occupancy fields are kept from s).
func (s PoolStats) Sub(before PoolStats) PoolStats {
	s.Hits -= before.Hits
	s.Misses -= before.Misses
	s.Evictions -= before.Evictions
	s.Retries -= before.Retries
	s.GaveUp -= before.GaveUp
	return s
}

// PinnedPool is the real buffer pool underneath file-backed node stores: a
// fixed-capacity LRU cache of decoded pages with pin counts. Where the
// simulation-only BufferPool merely counts would-be I/Os, a PinnedPool
// actually holds the decoded page values, refuses to evict pages that a
// traversal currently has pinned, and counts hits, misses and evictions —
// the numbers the paper's §6 buffer-effects discussion reasons about.
//
// Protocol: Pin(id) either returns the resident value (a hit, pinned) or
// reports a miss; on a miss the caller loads and decodes the page outside
// the pool lock and hands it to Insert, which pins it. Every successful
// Pin/Insert must be balanced by exactly one Unpin. Unpinned frames sit in
// LRU order and are evicted when the pool exceeds its capacity; if every
// frame is pinned the pool temporarily overflows rather than failing, and
// shrinks back as pins are released.
//
// All methods are safe for concurrent use; the hot Pin path takes one
// mutex and allocates nothing, and neither does a steady-state miss: the
// pool reuses the bookkeeping of the frame it evicts.
type PinnedPool struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*pframe
	lru      pframe  // sentinel of an intrusive ring of unpinned frames; next = most recently used
	free     *pframe // dropped frames' bookkeeping awaiting reuse, chained through next
	pinned   int
	onEvict  func(v any)

	hits, misses, evictions int64
}

// pframe is one resident frame. The LRU links are intrusive — a frame is
// its own list node — so a pin/unpin cycle on a hot page allocates nothing.
type pframe struct {
	id         PageID
	v          any
	pins       int
	prev, next *pframe // ring position while unpinned, nil while pinned
}

// lruPushFront marks fr most recently used.
func (p *PinnedPool) lruPushFront(fr *pframe) {
	fr.prev = &p.lru
	fr.next = p.lru.next
	fr.next.prev = fr
	p.lru.next = fr
}

// lruRemove detaches fr from the ring.
func (p *PinnedPool) lruRemove(fr *pframe) {
	fr.prev.next = fr.next
	fr.next.prev = fr.prev
	fr.prev, fr.next = nil, nil
}

// lruBack returns the least recently used unpinned frame, or nil when every
// resident frame is pinned.
func (p *PinnedPool) lruBack() *pframe {
	if p.lru.prev == &p.lru {
		return nil
	}
	return p.lru.prev
}

// NewPinnedPool returns a pool budgeted for capacity resident frames. A
// capacity of 0 keeps pages resident only while pinned — every access
// after the first unpin is a miss, the fully-cold configuration.
func NewPinnedPool(capacity int) *PinnedPool {
	if capacity < 0 {
		capacity = 0
	}
	p := &PinnedPool{
		capacity: capacity,
		frames:   make(map[PageID]*pframe),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// SetEvictHook registers fn to receive the value of every frame the pool
// drops — capacity eviction and EvictAll, both of which only ever drop
// unpinned frames — so the owner can recycle the value's buffers into its
// next load. Once fn has seen a value nothing reaches it through the pool
// again. fn runs under the pool's lock: it must be quick and must not call
// back into the pool. Call before the pool is shared.
func (p *PinnedPool) SetEvictHook(fn func(v any)) { p.onEvict = fn }

// newFrame returns bookkeeping for a page entering the pool, reusing a
// dropped frame's when there is one.
func (p *PinnedPool) newFrame(id PageID, v any) *pframe {
	fr := p.free
	if fr == nil {
		fr = new(pframe)
	} else {
		p.free = fr.next
		fr.next = nil
	}
	fr.id, fr.v = id, v
	p.frames[id] = fr
	return fr
}

// dropLocked forgets fr, an unpinned frame the caller has taken off the LRU
// ring: its value goes to the evict hook, and the bookkeeping onto the free
// chain.
func (p *PinnedPool) dropLocked(fr *pframe) {
	delete(p.frames, fr.id)
	if p.onEvict != nil {
		p.onEvict(fr.v)
	}
	*fr = pframe{next: p.free}
	p.free = fr
}

// Pin returns the resident value for id, pinned, or ok == false on a miss.
// After a miss the caller must load the page and register it with Insert.
func (p *PinnedPool) Pin(id PageID) (v any, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr := p.frames[id]
	if fr == nil {
		p.misses++
		return nil, false
	}
	p.hits++
	if fr.pins == 0 {
		p.lruRemove(fr)
		p.pinned++
	}
	fr.pins++
	return fr.v, true
}

// Insert registers a freshly loaded page value, pinned once, and returns
// the value the pool now holds for id. If a concurrent loader won the race
// the existing frame is pinned and returned instead and v is discarded.
// Inserting may evict unpinned frames to respect the capacity.
func (p *PinnedPool) Insert(id PageID, v any) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr := p.frames[id]; fr != nil {
		if fr.pins == 0 {
			p.lruRemove(fr)
			p.pinned++
		}
		fr.pins++
		return fr.v
	}
	p.newFrame(id, v).pins = 1
	p.pinned++
	p.evictOverflowLocked()
	return v
}

// Unpin releases one pin on id. When the last pin drops the frame joins
// the LRU order (most recently used) and becomes evictable.
func (p *PinnedPool) Unpin(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr := p.frames[id]
	if fr == nil || fr.pins == 0 {
		return // never pinned
	}
	fr.pins--
	if fr.pins == 0 {
		p.lruPushFront(fr)
		p.pinned--
		p.evictOverflowLocked()
	}
}

// evictOverflowLocked drops least-recently-used unpinned frames until the
// pool fits its capacity (or only pinned frames remain).
func (p *PinnedPool) evictOverflowLocked() {
	for len(p.frames) > p.capacity {
		fr := p.lruBack()
		if fr == nil {
			return // all pinned: tolerate transient overflow
		}
		p.lruRemove(fr)
		p.evictions++
		p.dropLocked(fr)
	}
}

// EvictAll drops every unpinned frame — a cold restart of the cache, used
// by experiments that measure per-query cold-start faults. It is not
// counted in Evictions.
func (p *PinnedPool) EvictAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for fr := p.lru.next; fr != &p.lru; fr = p.lru.next {
		p.lruRemove(fr)
		p.dropLocked(fr)
	}
}

// ResetStats zeroes the traffic counters without touching residency.
func (p *PinnedPool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits, p.misses, p.evictions = 0, 0, 0
}

// Stats returns a snapshot of the counters and occupancy.
func (p *PinnedPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		Resident:  len(p.frames),
		Pinned:    p.pinned,
		Capacity:  p.capacity,
	}
}
