package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blobindex/internal/apiclient"
	"blobindex/internal/wire"
)

// stalledListener accepts TCP connections and then sits on them forever —
// the half-dead member: a SIGSTOP'd or wedged daemon whose kernel still
// completes the handshake while the process answers nothing. accepted
// receives after a connection is accepted.
func stalledListener(t *testing.T) (addr string, accepted <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			select {
			case ch <- struct{}{}:
			default:
			}
			go func() {
				defer c.Close()
				io.Copy(io.Discard, c) // read the request, never answer
			}()
		}
	}()
	return "http://" + ln.Addr().String(), ch
}

// fakeReadyServer answers /readyz and /v1/stats like a healthy daemon.
func fakeReadyServer(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"server":{"version":"test"}}`)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestHealthStalledMemberDegraded is the half-dead regression test: a member
// that accepts TCP but times out on /readyz must land in StateDegraded — not
// down, and certainly not unknown — and sort behind its healthy replica in
// routing order.
func TestHealthStalledMemberDegraded(t *testing.T) {
	stalled, _ := stalledListener(t)
	healthy := fakeReadyServer(t)
	man := &Manifest{
		Partition: PartitionHash,
		Method:    "xjb",
		Dim:       5,
		Shards: []Shard{{
			ID: 0,
			// The stalled member is the primary: only a demotion can put the
			// healthy replica first.
			Members: []string{stalled, healthy},
		}},
	}
	r, err := NewRouter(Config{
		Manifest:       man,
		ShardTimeout:   100 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		sp, sr := r.shards[0][0].getState(), r.shards[0][1].getState()
		if sp == StateDegraded && sr == StateHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("states never settled: stalled=%v healthy=%v (want degraded, healthy)", sp, sr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	order := r.memberOrder(0)
	if order[0].addr != healthy || order[1].addr != stalled {
		t.Fatalf("routing order did not demote the stalled primary: %s, %s", order[0].addr, order[1].addr)
	}
	// The stalled member's probes must have recorded what went wrong.
	if m := r.shards[0][0]; m.consecFails.Load() == 0 {
		t.Fatal("stalled member has no recorded probe failures")
	}
}

// TestRouterCloseInterruptsProbes: Close returns promptly while a health
// probe is stuck on a member that never answers, rather than waiting out
// the probe's deadline (here the 10 s health interval).
func TestRouterCloseInterruptsProbes(t *testing.T) {
	stalled, accepted := stalledListener(t)
	r, err := NewRouter(Config{
		Manifest:       &Manifest{Partition: PartitionHash, Method: "xjb", Dim: 5, Shards: []Shard{{Members: []string{stalled}}}},
		HealthInterval: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-accepted // the first probe is in flight
	start := time.Now()
	r.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a probe in flight", d)
	}
	if m := r.shards[0][0]; m.consecFails.Load() != 0 || m.getState() != StateUnknown {
		t.Fatalf("the interrupted probe was recorded against the member: %d fails, %v", m.consecFails.Load(), m.getState())
	}
}

// TestMemberOrderRanksEveryStatePair pins the routing preference for a
// primary and its replica in every pair of states: the replica leads only
// when it ranks strictly better, and unprobed ranks with healthy — so a
// health round that reaches the replica first cannot count a failover.
func TestMemberOrderRanksEveryStatePair(t *testing.T) {
	rank := map[MemberState]int{StateHealthy: 0, StateUnknown: 0, StateDegraded: 1, StateDown: 2}
	states := []MemberState{StateUnknown, StateHealthy, StateDegraded, StateDown}
	for _, ps := range states {
		for _, rs := range states {
			primary, replica := &member{addr: "primary"}, &member{addr: "replica"}
			primary.setState(ps)
			replica.setState(rs)
			r := &Router{shards: [][]*member{{primary, replica}}}
			want := "primary"
			if rank[rs] < rank[ps] {
				want = "replica"
			}
			if got := r.memberOrder(0)[0].addr; got != want {
				t.Errorf("primary=%v replica=%v: %s leads, want %s", ps, rs, got, want)
			}
		}
	}
}

// TestNoteFailureClassification pins the query-path health signal: timeouts
// degrade, refused connections bury, explicit daemon statuses keep the
// probed state.
func TestNoteFailureClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		from MemberState
		want MemberState
	}{
		{"ctx deadline degrades", context.DeadlineExceeded, StateHealthy, StateDegraded},
		{"net timeout degrades", &net.OpError{Op: "read", Err: timeoutErr{}}, StateHealthy, StateDegraded},
		{"refused goes down", errors.New("dial tcp: connection refused"), StateHealthy, StateDown},
		{"status error keeps state", &apiclient.StatusError{Code: 503}, StateHealthy, StateHealthy},
		{"malformed body degrades", fmt.Errorf("%w: tail at byte 9", wire.ErrMalformed), StateHealthy, StateDegraded},
	}
	for _, c := range cases {
		m := &member{addr: "x"}
		m.setState(c.from)
		m.noteFailure(c.err)
		if got := m.getState(); got != c.want {
			t.Errorf("%s: state %v, want %v", c.name, got, c.want)
		}
	}
}

// timeoutErr is a net.Error whose Timeout is true, the shape a stalled read
// surfaces as.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }
