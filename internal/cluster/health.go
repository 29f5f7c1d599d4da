package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blobindex/internal/apiclient"
	"blobindex/internal/server"
	"blobindex/internal/wire"
)

// MemberState is a shard member's last known health.
type MemberState int32

const (
	// StateUnknown is the boot state, before the first probe lands; the
	// router ranks unknown members with healthy ones.
	StateUnknown MemberState = iota
	// StateHealthy: /readyz answered 200 (or a query just succeeded).
	StateHealthy
	// StateDegraded: the process is up but not answering usefully — /readyz
	// reports 503 (PR 5's degraded signal, its windowed storage error rate
	// over threshold), or the member accepts TCP but stalls past the probe
	// deadline (a SIGSTOP'd or wedged process: half-dead, not gone), or
	// answers a search 200 with a malformed body. The router routes around
	// degraded members while any healthy member of the shard remains.
	StateDegraded
	// StateDown: the member is unreachable — connections are refused or
	// reset, the process itself is gone.
	StateDown
)

func (s MemberState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// member is one daemon address of one shard, with its health, its observed
// build (from the shard's /v1/stats server section) and its serving
// counters.
type member struct {
	addr    string
	primary bool
	cli     *apiclient.Client

	state       atomic.Int32
	consecFails atomic.Int64
	served      atomic.Int64
	lastErr     atomic.Value // string
	version     atomic.Value // string
	lat         server.Histogram
}

func (m *member) setState(s MemberState) { m.state.Store(int32(s)) }
func (m *member) getState() MemberState  { return MemberState(m.state.Load()) }

// noteSuccess is the passive health signal from the query path: a served
// request proves the member routable, faster than waiting for the next
// probe (a shard rejoining after a restart starts taking traffic on its
// first successful response).
func (m *member) noteSuccess() {
	m.consecFails.Store(0)
	m.setState(StateHealthy)
}

// noteFailure records a query-path failure. Refused/reset transport errors
// mark the member down immediately so the next query orders it last; a
// timeout on a member that accepted the connection, or a 200 whose body is
// not a well-formed search response, marks it degraded — the process is
// alive but not answering usefully, and must sort behind healthy and
// unprobed replicas without being written off as gone; an explicit daemon
// error keeps the probed state (one 503 under load does not mean the
// process is gone).
func (m *member) noteFailure(err error) {
	m.consecFails.Add(1)
	m.lastErr.Store(err.Error())
	var se *apiclient.StatusError
	switch {
	case errors.As(err, &se):
	case isTimeout(err), errors.Is(err, wire.ErrMalformed):
		m.setState(StateDegraded)
	default:
		m.setState(StateDown)
	}
}

// isTimeout distinguishes the half-dead member (TCP accepted, no answer
// before the deadline) from the dead one (connection refused or reset).
// Context expiry shows up here too: the probe's own deadline firing means
// the member sat on an open connection without answering.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// healthTracker polls every member's /readyz on an interval and keeps the
// per-member states the router's ordering and readiness decisions read.
// Cancelling ctx stops it, and every probe runs under ctx, so closing never
// waits out a stalled member's probe deadline.
type healthTracker struct {
	shards   [][]*member
	interval time.Duration
	ctx      context.Context
	cancel   context.CancelFunc
	done     sync.WaitGroup
}

func newHealthTracker(shards [][]*member, interval time.Duration) *healthTracker {
	ctx, cancel := context.WithCancel(context.Background())
	return &healthTracker{shards: shards, interval: interval, ctx: ctx, cancel: cancel}
}

func (t *healthTracker) start() {
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		t.pollAll() // prime the states before the first tick
		tick := time.NewTicker(t.interval)
		defer tick.Stop()
		for {
			select {
			case <-t.ctx.Done():
				return
			case <-tick.C:
				t.pollAll()
			}
		}
	}()
}

func (t *healthTracker) close() {
	t.cancel()
	t.done.Wait()
}

func (t *healthTracker) pollAll() {
	var wg sync.WaitGroup
	for _, ms := range t.shards {
		for _, m := range ms {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				t.poll(m)
			}(m)
		}
	}
	wg.Wait()
}

func (t *healthTracker) poll(m *member) {
	ctx, cancel := context.WithTimeout(t.ctx, t.interval)
	defer cancel()
	err := m.cli.Ready(ctx)
	switch {
	case t.ctx.Err() != nil:
		// Closing: an interrupted probe is no verdict on the member.
	case err == nil:
		was := m.getState()
		m.consecFails.Store(0)
		m.setState(StateHealthy)
		// On every transition into healthy (first contact, rejoin after a
		// kill, recovery from degraded) ask the member what it is: the
		// /v1/stats server section carries its build info.
		if was != StateHealthy {
			if st, err := m.cli.Stats(ctx); err == nil {
				m.version.Store(st.Server.Version)
			}
		}
	default:
		m.consecFails.Add(1)
		m.lastErr.Store(err.Error())
		var se *apiclient.StatusError
		switch {
		case errors.As(err, &se):
			// The daemon answered — it is up but not ready (503 from the
			// /readyz error-rate gate).
			m.setState(StateDegraded)
		case isTimeout(err):
			// Half-dead: the member accepted the connection but never
			// answered before the probe deadline. A SIGSTOP'd or wedged
			// process looks exactly like this — demote it, don't bury it.
			m.setState(StateDegraded)
		default:
			m.setState(StateDown)
		}
	}
}
