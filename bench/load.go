package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc performs request i on connection c and reports whether it
// succeeded (transport, status and answer all good) and how many bytes went
// each way.
type opFunc func(c *client, i int) (ok bool, sent, received int)

// phaseResult is what one timed phase measured, or several slices of one
// phase added together.
type phaseResult struct {
	Lat       *Samples // successful requests only
	Lag       *Samples // open loop: how long after its due time each request was sent
	Attempted int      // requests the phase was asked to make
	Failed    int      // failed requests plus requests the deadline cut off
	Elapsed   time.Duration
	BytesOut  int64
	BytesIn   int64
	CPU       cpuTimes    // the guest's CPU accounting over the phase: how much of it the host stole
	parts     []phasePart // one per slice added
}

// phasePart locates one slice's samples inside the pooled ones.
type phasePart struct {
	from, to int // Lat.ns[from:to], in arrival order
	elapsed  time.Duration
}

func newPhase(capacity int) phaseResult {
	return phaseResult{Lat: NewSamples(capacity), Lag: NewSamples(capacity)}
}

// add accumulates another slice of the same phase.
func (r *phaseResult) add(o phaseResult) {
	r.parts = append(r.parts, phasePart{r.Lat.N(), r.Lat.N() + o.Lat.N(), o.Elapsed})
	r.Lat.Merge(o.Lat)
	r.Lag.Merge(o.Lag)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Elapsed += o.Elapsed
	r.BytesOut += o.BytesOut
	r.BytesIn += o.BytesIn
	r.CPU = r.CPU.add(o.CPU)
}

// Throughput is successful requests per second of phase wall time.
func (r phaseResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Lat.N()) / r.Elapsed.Seconds()
}

// perSlice returns each slice's successful requests per second and its
// samples as a Samples of their own.
func (r phaseResult) perSlice() (rps []float64, lat []*Samples) {
	for _, p := range r.parts {
		s := &Samples{ns: r.Lat.ns[p.from:p.to]}
		lat = append(lat, s)
		rps = append(rps, float64(s.N())/p.elapsed.Seconds())
	}
	return rps, lat
}

// runClosed is the closed loop: every client is one caller that sends its
// next request only when the previous reply has arrived — what a web tier,
// or the router, is to blobserved. The phase is count-based: the callers
// share a counter and make requests lo..hi-1, so both sides of a comparison
// do identical work. It ends early when stop closes (a phase that lasts as
// long as another one) or the deadline passes; requests the deadline cut
// off count as failed, requests a stop cut off were never due.
func runClosed(clients []*client, lo, hi int, deadline time.Time, stop <-chan struct{}, op opFunc) phaseResult {
	n := hi - lo
	res := newPhase(n)
	var (
		next                      atomic.Int64
		attempts, failed, out, in atomic.Int64
		stopped                   atomic.Bool
		wg                        sync.WaitGroup
		perConn                   = make([]*Samples, len(clients))
	)
	next.Store(int64(lo))
	cpu0, start := readCPUTimes(), time.Now()
	for ci, c := range clients {
		perConn[ci] = NewSamples(n/len(clients) + n/8 + 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					stopped.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				t0 := time.Now()
				if i >= hi || t0.After(deadline) {
					return
				}
				attempts.Add(1)
				ok, s, r := op(c, i)
				if ok {
					perConn[ci].Add(time.Since(t0))
				} else {
					failed.Add(1)
				}
				out.Add(int64(s))
				in.Add(int64(r))
			}
		}()
	}
	wg.Wait()
	res.Elapsed, res.CPU = time.Since(start), readCPUTimes().sub(cpu0)
	for _, s := range perConn {
		res.Lat.Merge(s)
	}
	res.Attempted = n
	if stopped.Load() {
		res.Attempted = int(attempts.Load())
	}
	res.Failed = int(failed.Load()) + res.Attempted - int(attempts.Load())
	res.BytesOut, res.BytesIn = out.Load(), in.Load()
	return res
}

// arrivals returns the due time of each of n open-loop requests as an
// offset from the start of the phase: a Poisson process of the given mean
// rate, drawn from the seed. Independent users arrive like this; a fixed
// interval would instead lock two schedules (a reader's and a writer's)
// into one phase relation for a whole run and make the median depend on
// which.
func arrivals(seed int64, salt uint64, n int, rate float64) []time.Duration {
	r := rng(seed, salt)
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// runOpen is the open loop: request i of lo..hi-1 is due at start +
// due[i] - due[lo] whatever happened to the requests before it, and its
// latency is timed from that due time — so a stall's cost to the requests
// queued behind it is counted, not hidden the way a closed loop hides it by
// sending less. The schedule is one sequence shared by the connections: a
// connection takes the next due request, waits for its due time if it is
// early, and sends. Lag records how late each request actually left
// (generator lateness plus the wait for a free connection).
func runOpen(clients []*client, lo, hi int, due []time.Duration, deadline time.Time, op opFunc) phaseResult {
	n := hi - lo
	res := newPhase(n)
	res.Attempted = n
	var (
		next                      atomic.Int64
		attempts, failed, out, in atomic.Int64
		wg                        sync.WaitGroup
		lats                      = make([]*Samples, len(clients))
		lags                      = make([]*Samples, len(clients))
	)
	next.Store(int64(lo))
	var base time.Duration
	if lo > 0 {
		base = due[lo-1]
	}
	cpu0, start := readCPUTimes(), time.Now()
	for ci, c := range clients {
		lats[ci], lags[ci] = NewSamples(n), NewSamples(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				at := start.Add(due[i] - base)
				if at.After(deadline) {
					return
				}
				sleepUntil(at)
				sent := time.Now()
				attempts.Add(1)
				ok, s, r := op(c, i)
				if ok {
					lats[ci].Add(time.Since(at))
					lags[ci].Add(sent.Sub(at))
				} else {
					failed.Add(1)
				}
				out.Add(int64(s))
				in.Add(int64(r))
			}
		}()
	}
	wg.Wait()
	res.Elapsed, res.CPU = time.Since(start), readCPUTimes().sub(cpu0)
	for ci := range clients {
		res.Lat.Merge(lats[ci])
		res.Lag.Merge(lags[ci])
	}
	res.Failed = int(failed.Load()) + n - int(attempts.Load())
	res.BytesOut, res.BytesIn = out.Load(), in.Load()
	return res
}

// sleepUntil blocks until at with nanosleep(2). time.Sleep in an otherwise
// idle process wakes through the netpoller, whose timeouts are whole
// milliseconds: on this box it overshoots by 0.5 ms at the median — more
// than a cache hit takes — where nanosleep overshoots by 0.08 ms.
func sleepUntil(at time.Time) {
	for wait := time.Until(at); wait > 0; wait = time.Until(at) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop sleeps the rest
	}
}

// sliceBounds splits n requests into `of` consecutive slices and returns
// slice s as a half-open range.
func sliceBounds(n, s, of int) (lo, hi int) { return s * n / of, (s + 1) * n / of }
