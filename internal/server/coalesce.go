package server

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightGroup coalesces identical concurrent searches: while one request
// (the leader) runs the index search for a key, every other request with
// the same key (the followers) blocks on the leader's completion and shares
// its result instead of re-running the traversal. Keys are the same
// signatures the result cache uses, so "identical" has one definition
// across both layers.
//
// This is the classic single-flight shape, hand-rolled because the repo is
// stdlib-only. One serving-specific twist: the leader runs under its own
// request context, so a leader whose client disconnects mid-search poisons
// the flight with a context error that has nothing to do with the
// followers. do reports whether the returned error came from the shared
// flight (leader) rather than the caller, so the handler can retry the
// flight — becoming the new leader — instead of failing an innocent client.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall

	leaders   atomic.Int64 // flights actually executed
	followers atomic.Int64 // callers served by another caller's flight
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// do returns the result of fn for key, running fn at most once across
// concurrent callers with the same key. shared reports that the result (or
// error) was produced by a different caller's fn. A follower whose own ctx
// dies while waiting gets its ctx error with shared == false.
func (g *flightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		g.followers.Add(1)
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	g.leaders.Add(1)
	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// CoalesceStats is the coalescing section of the server's /v1/stats payload.
type CoalesceStats struct {
	Leaders   int64 `json:"leaders"`   // searches actually executed
	Followers int64 `json:"followers"` // requests that shared a leader's search
}

func (g *flightGroup) stats() CoalesceStats {
	return CoalesceStats{Leaders: g.leaders.Load(), Followers: g.followers.Load()}
}
