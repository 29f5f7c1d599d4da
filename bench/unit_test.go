package main

import (
	"reflect"
	"testing"
	"time"
)

func samplesOf(ms ...int) *Samples {
	s := NewSamples(len(ms))
	for _, v := range ms {
		s.Add(time.Duration(v) * time.Millisecond)
	}
	return s
}

func TestPercentileIsNearestRank(t *testing.T) {
	// 1..1000 ms in scrambled arrival order: the p-th percentile is p*10 ms.
	s := NewSamples(1000)
	for i := 0; i < 1000; i++ {
		s.Add(time.Duration((i*373)%1000+1) * time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.001, 1}} {
		got, err := s.Percentile(c.p)
		if err != nil {
			t.Fatalf("p%v: %v", c.p, err)
		}
		if got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("p%v = %v, want %d ms", c.p, got, c.want)
		}
	}
	if got := rankIndex(0.5, 4); got != 1 {
		t.Errorf("rankIndex(0.5, 4) = %d, want 1 (the second of four)", got)
	}
	if got := rankIndex(1, 7); got != 6 {
		t.Errorf("rankIndex(1, 7) = %d, want the last index", got)
	}
}

func TestPercentileRefusesUnsupportedTail(t *testing.T) {
	s := NewSamples(1000)
	for i := 0; i < 999; i++ {
		s.Add(time.Millisecond)
	}
	if _, err := s.Percentile(0.99); err == nil {
		t.Error("p99 of 999 samples was reported; it has only 9 samples beyond it")
	}
	if _, err := s.Percentile(0.5); err != nil {
		t.Errorf("p50 of 999 samples refused: %v", err)
	}
	s.Add(time.Millisecond)
	if _, err := s.Percentile(0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := samplesOf(1, 2, 3).Percentile(0.5); err == nil {
		t.Error("p50 of 3 samples was reported")
	}
	if _, err := new(Samples).Percentile(0.5); err == nil {
		t.Error("a percentile of no samples was reported")
	}
	if got := samplesOf(3, 1, 2).Loose(0.5); got != 2*time.Millisecond {
		t.Errorf("Loose(0.5) of {3,1,2} ms = %v, want 2ms", got)
	}
}

func TestMergeKeepsArrivalOrderAndInvalidatesCache(t *testing.T) {
	a, b := samplesOf(5, 1), samplesOf(9)
	if a.Loose(1) != 5*time.Millisecond {
		t.Fatal("max of {5,1} is not 5")
	}
	a.Merge(b)
	if a.N() != 3 || a.Loose(1) != 9*time.Millisecond {
		t.Errorf("after merge: n=%d max=%v, want 3 and 9ms", a.N(), a.Loose(1))
	}
	if !reflect.DeepEqual(a.ns, []int64{5e6, 1e6, 9e6}) {
		t.Errorf("arrival order lost: %v", a.ns)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
}

// TestOpenLoopChargesAStallToLaterRequests is the due-time accounting check:
// one request stalls a single connection for 50 ms; the requests that were
// due during the stall must show the wait in their own latency, because
// they are timed from when they were due, not from when they left.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		n     = 60
		stall = 50 * time.Millisecond
	)
	due := make([]time.Duration, n) // one request per millisecond
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	op := func(_ *client, i int) (bool, int, int) {
		if i == 10 {
			time.Sleep(stall)
		}
		return true, 0, 0
	}
	res := runOpen([]*client{nil}, 0, n, due, time.Now().Add(time.Minute), op)
	if res.Failed != 0 || res.Lat.N() != n {
		t.Fatalf("failed %d, samples %d", res.Failed, res.Lat.N())
	}
	// Arrival order is request order on one connection. Request 11 was due
	// 1 ms into the stall and left ~49 ms late; request 30 about 30 ms late.
	late := 0
	for i := 11; i <= 30; i++ {
		if time.Duration(res.Lat.ns[i]) >= 15*time.Millisecond {
			late++
		}
	}
	if late < 18 {
		t.Errorf("only %d of the 20 requests due during the stall carry it in their latency", late)
	}
	if first := time.Duration(res.Lat.ns[5]); first > 10*time.Millisecond {
		t.Errorf("request 5, due before the stall, took %v", first)
	}
	if lag := res.Lag.Loose(0.99); lag < 30*time.Millisecond {
		t.Errorf("generator lateness p99 = %v, want the stall to show", lag)
	}
	// A closed loop hides the same stall from everyone but its victim.
	closed := runClosed([]*client{nil}, 0, n, time.Now().Add(time.Minute), nil, op)
	slow := 0
	for _, v := range closed.Lat.ns {
		if time.Duration(v) >= 15*time.Millisecond {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop: %d slow requests, want exactly the stalled one", slow)
	}
}

func TestClosedLoopCountsDeadlineCutAsFailures(t *testing.T) {
	op := func(_ *client, i int) (bool, int, int) {
		time.Sleep(2 * time.Millisecond)
		return i != 3, 10, 20
	}
	res := runClosed([]*client{nil, nil}, 0, 1000, time.Now().Add(40*time.Millisecond), nil, op)
	if res.Attempted != 1000 {
		t.Errorf("attempted = %d, want the 1000 asked for", res.Attempted)
	}
	done := res.Lat.N()
	if done == 0 || done > 100 {
		t.Fatalf("%d requests finished inside a 40 ms deadline at 2 ms each on two connections", done)
	}
	if res.Failed != 1000-done {
		t.Errorf("failed = %d, want everything that did not succeed (%d)", res.Failed, 1000-done)
	}
	if res.BytesOut != int64(10*(done+1)) {
		t.Errorf("bytes out = %d for %d requests sent", res.BytesOut, done+1)
	}

	// A stopped phase was never due the requests it did not send.
	stop := make(chan struct{})
	close(stop)
	res = runClosed([]*client{nil}, 0, 1000, time.Now().Add(time.Minute), stop, op)
	if res.Attempted != 0 || res.Failed != 0 {
		t.Errorf("stopped phase: attempted %d failed %d, want 0 0", res.Attempted, res.Failed)
	}
}

func TestSlicesCoverARangeOnceAndOpenSlicesRebase(t *testing.T) {
	seen := make([]int, 103)
	for sl := 0; sl < nSlices; sl++ {
		lo, hi := sliceBounds(len(seen), sl, nSlices)
		res := runClosed([]*client{nil, nil}, lo, hi, time.Now().Add(time.Minute), nil,
			func(_ *client, i int) (bool, int, int) { seen[i]++; return true, 0, 0 })
		if res.Attempted != hi-lo || res.Failed != 0 {
			t.Errorf("slice %d: attempted %d failed %d, want %d 0", sl, res.Attempted, res.Failed, hi-lo)
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("request %d made %d times", i, c)
		}
	}
	// A later slice starts its schedule at its own start, not the phase's.
	due := arrivals(1, 16, 40, 2000)
	for i := 1; i < len(due); i++ {
		if due[i] <= due[i-1] {
			t.Fatalf("arrivals not increasing at %d", i)
		}
	}
	start := time.Now()
	res := runOpen([]*client{nil}, 30, 40, due, time.Now().Add(time.Minute), func(*client, int) (bool, int, int) { return true, 0, 0 })
	if res.Lat.N() != 10 || time.Since(start) > due[39]-due[29]+50*time.Millisecond {
		t.Errorf("slice 30..40 sent %d requests in %v, schedule spans %v", res.Lat.N(), time.Since(start), due[39]-due[29])
	}
	if a, b := arrivals(1, 16, 40, 2000), arrivals(1, 16, 40, 2000); !reflect.DeepEqual(a, b) {
		t.Error("arrivals differs between two calls with one seed")
	}
}

func testKeys() [][]float64 {
	r := rng(99, 0)
	keys := make([][]float64, 500)
	for i := range keys {
		keys[i] = make([]float64, indexDim)
		for d := range keys[i] {
			keys[i][d] = r.NormFloat64() * float64(d+1)
		}
	}
	return keys
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	keys := testKeys()
	if a, b := zipfRanks(7, 1000, 64, 1.1), zipfRanks(7, 1000, 64, 1.1); !reflect.DeepEqual(a, b) {
		t.Error("zipfRanks differs between two calls with one seed")
	}
	if a, b := zipfRanks(7, 1000, 64, 1.1), zipfRanks(8, 1000, 64, 1.1); reflect.DeepEqual(a, b) {
		t.Error("zipfRanks ignores the seed")
	}
	if a, b := distinctQueries(7, 14, keys, 300, 0.05), distinctQueries(7, 14, keys, 300, 0.05); !reflect.DeepEqual(a, b) {
		t.Error("distinctQueries differs between two calls with one seed")
	}
	if a, b := distinctQueries(7, 14, keys, 300, 0.05), distinctQueries(7, 15, keys, 300, 0.05); reflect.DeepEqual(a, b) {
		t.Error("distinctQueries ignores the salt: two phases would send the same queries")
	}
	if a, b := distinctFeatures(7, 14, keys, 50, 0.1), distinctFeatures(7, 14, keys, 50, 0.1); !reflect.DeepEqual(a, b) {
		t.Error("distinctFeatures differs between two calls with one seed")
	}
	if a, b := writeStream(7, 21, keys, 400, 0.1, 0), writeStream(7, 21, keys, 400, 0.1, 0); !reflect.DeepEqual(a, b) {
		t.Error("writeStream differs between two calls with one seed")
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	counts := make([]int, 64)
	for _, r := range zipfRanks(3, 20000, 64, 1.1) {
		if r < 0 || r >= 64 {
			t.Fatalf("rank %d outside [0, 64)", r)
		}
		counts[r]++
	}
	if counts[0] < 4*counts[9] {
		t.Errorf("rank 0 drawn %d times, rank 9 %d: not Zipf(1.1)", counts[0], counts[9])
	}
}

func TestDistinctQueriesNeverShareACacheKey(t *testing.T) {
	// Few keys and tiny jitter: collisions are likely unless rejected.
	keys := testKeys()[:3]
	seen := map[[indexDim]int64]bool{}
	for _, q := range distinctQueries(1, 1, keys, 2000, 1e-5) {
		var ck [indexDim]int64
		for d, v := range q {
			ck[d] = int64(v/cacheQuantum + 0.5*sign(v))
		}
		if seen[ck] {
			t.Fatalf("two queries quantise to %v", ck)
		}
		seen[ck] = true
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func TestWriteStreamDeletesOnlyEarlierLiveInserts(t *testing.T) {
	live := map[int64]bool{}
	deletes := 0
	for i, w := range writeStream(5, 21, testKeys(), 2000, 0.1, 1<<24) {
		if w.Delete {
			deletes++
			if !live[w.RID] {
				t.Fatalf("op %d deletes rid %d, which is not a live earlier insert", i, w.RID)
			}
			delete(live, w.RID)
			continue
		}
		if w.RID < ridBase || live[w.RID] {
			t.Fatalf("op %d inserts rid %d: below ridBase or a duplicate", i, w.RID)
		}
		live[w.RID] = true
	}
	if deletes < 100 || deletes > 300 {
		t.Errorf("%d deletes in 2000 ops at a share of 0.1", deletes)
	}
}

func TestGrantedShare(t *testing.T) {
	if g := (cpuTimes{}).granted(); g != 1 {
		t.Errorf("nothing measured: granted = %v, want 1", g)
	}
	if g := (cpuTimes{busy: 200}).granted(); g != 1 {
		t.Errorf("nothing stolen: granted = %v, want 1", g)
	}
	got := cpuTimes{busy: 1000, stolen: 300}.sub(cpuTimes{busy: 100, stolen: 200}).granted()
	if got != 0.9 {
		t.Errorf("900 busy, 100 stolen: granted = %v, want 0.9", got)
	}
	if now := readCPUTimes(); now.busy <= 0 {
		t.Errorf("/proc/stat read as %+v", now)
	}
}
