package chaoscluster

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"blobindex/internal/wire"
)

func testEnv(actions int) *genEnv {
	rng := rand.New(rand.NewSource(42))
	keys := make([][]float64, 500)
	rids := make([]int64, 500)
	for i := range keys {
		keys[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		rids[i] = int64(i)
	}
	return &genEnv{
		dim:     3,
		fullDim: 12,
		keys:    keys,
		rids:    rids,
		scale:   1,
		owner:   func(rid int64) int { return int(rid % 3) },
		// Shard 0 is the saved pagefile, 1 and 2 are online.
		onlineShard:    []bool{false, true, true},
		faultables:     []int{0, 2, 3},
		faultableIsOn:  []bool{false, true, true},
		k:              10,
		actions:        actions,
		firstInsertRID: 500,
	}
}

// TestGenActionsDeterministic: the sequence is a pure function of the seed.
func TestGenActionsDeterministic(t *testing.T) {
	a := genActions(rand.New(rand.NewSource(5)), testEnv(128))
	b := genActions(rand.New(rand.NewSource(5)), testEnv(128))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different action sequences")
	}
	c := genActions(rand.New(rand.NewSource(6)), testEnv(128))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical action sequences")
	}
}

// TestGenActionsInvariants: required fault coverage, paired windows, writes
// only to online shards, contiguous indices.
func TestGenActionsInvariants(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		env := testEnv(96)
		actions := genActions(rand.New(rand.NewSource(seed)), env)
		if len(actions) < 96 {
			t.Fatalf("seed %d: %d actions, want >= 96", seed, len(actions))
		}
		counts := map[actionKind]int{}
		window := false
		for i, a := range actions {
			if a.Index != i {
				t.Fatalf("seed %d: action %d has index %d", seed, i, a.Index)
			}
			counts[a.Kind]++
			switch a.Kind {
			case actKill9, actStall, actPartition:
				if window {
					t.Fatalf("seed %d action %d: %s opened inside an open window", seed, i, a.Kind)
				}
				window = true
			case actHeal:
				if !window {
					t.Fatalf("seed %d action %d: heal without an open window", seed, i)
				}
				window = false
			case actRestart:
				if window {
					t.Fatalf("seed %d action %d: restart inside an open window", seed, i)
				}
			case actInsert:
				if !env.onlineShard[env.owner(a.RID)] {
					t.Fatalf("seed %d action %d: insert rid %d owned by a read-only shard", seed, i, a.RID)
				}
				if a.RID < env.firstInsertRID {
					t.Fatalf("seed %d action %d: insert rid %d collides with the corpus", seed, i, a.RID)
				}
			case actDelete:
				if !env.onlineShard[env.owner(a.RID)] {
					t.Fatalf("seed %d action %d: delete rid %d owned by a read-only shard", seed, i, a.RID)
				}
				if a.Key == nil {
					t.Fatalf("seed %d action %d: delete without a key", seed, i)
				}
			}
		}
		if window {
			t.Fatalf("seed %d: sequence ends with an open fault window", seed)
		}
		// The acceptance-criteria fault classes are forced when the weighted
		// draw misses them.
		if counts[actKill9] == 0 || counts[actPartition] == 0 || counts[actRestart] == 0 {
			t.Fatalf("seed %d: missing required fault coverage: %d kill9, %d partition, %d restart",
				seed, counts[actKill9], counts[actPartition], counts[actRestart])
		}
	}
}

// echoBackend accepts connections and echoes lines back.
func echoBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					fmt.Fprintf(c, "%s\n", sc.Text())
				}
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

func roundTrip(t *testing.T, conn net.Conn, msg string) (string, error) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
	if _, err := fmt.Fprintf(conn, "%s\n", msg); err != nil {
		return "", err
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	return line, err
}

// TestProxyPartition: forward passes traffic, blackhole severs established
// connections and times out new ones, refuse resets, and healing back to
// forward restores service.
func TestProxyPartition(t *testing.T) {
	backend := echoBackend(t)
	p, err := newProxy(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	conn, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	if line, err := roundTrip(t, conn, "hello"); err != nil || line != "hello\n" {
		t.Fatalf("forward round trip: %q, %v", line, err)
	}

	// Entering the blackhole severs the established pipe...
	p.setMode(modeBlackhole)
	if _, err := roundTrip(t, conn, "into the void"); err == nil {
		t.Fatal("severed connection still round-trips")
	}
	conn.Close()

	// ...and a fresh connection is accepted but never answered.
	conn2, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatalf("blackhole must still accept: %v", err)
	}
	if line, err := roundTrip(t, conn2, "anyone?"); err == nil {
		t.Fatalf("blackholed connection got an answer: %q", line)
	}
	conn2.Close()

	// Refuse looks like a dead process: connect-then-immediate-close.
	p.setMode(modeRefuse)
	conn3, err := net.Dial("tcp", p.addr())
	if err == nil {
		if _, err := roundTrip(t, conn3, "refused?"); err == nil {
			t.Fatal("refused connection round-tripped")
		}
		conn3.Close()
	}

	// Heal: back to forwarding.
	p.setMode(modeForward)
	conn4, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn4.Close()
	if line, err := roundTrip(t, conn4, "back"); err != nil || line != "back\n" {
		t.Fatalf("healed round trip: %q, %v", line, err)
	}
}

// TestResultDigest: the digest follows (RID, Dist2 bits) and is order- and
// content-sensitive.
func TestResultDigest(t *testing.T) {
	a := []wire.Neighbor{{RID: 1, Dist2: 0.25}, {RID: 2, Dist2: 0.5}}
	b := []wire.Neighbor{{RID: 2, Dist2: 0.5}, {RID: 1, Dist2: 0.25}}
	if resultDigest(a) == resultDigest(b) {
		t.Fatal("digest ignores order")
	}
	c := []wire.Neighbor{{RID: 1, Dist2: 0.25}, {RID: 2, Dist2: 0.5}}
	if resultDigest(a) != resultDigest(c) {
		t.Fatal("identical lists digest differently")
	}
	d := []wire.Neighbor{{RID: 1, Dist2: 0.25}, {RID: 2, Dist2: 0.5000000000000001}}
	if resultDigest(a) == resultDigest(d) {
		t.Fatal("digest ignores a one-ulp distance change")
	}
}

// TestSigFilter: the Hamming post-filter preserves (Dist2, RID) order,
// respects the threshold, and truncates to k.
func TestSigFilter(t *testing.T) {
	th := []float64{0.5, 0.5, 0.5}
	res := []wire.Neighbor{
		{RID: 1, Dist2: 0.1, Key: []float64{1, 1, 1}}, // sig 111
		{RID: 2, Dist2: 0.2, Key: []float64{0, 1, 1}}, // sig 110
		{RID: 3, Dist2: 0.3, Key: []float64{0, 0, 1}}, // sig 100
		{RID: 4, Dist2: 0.4, Key: []float64{0, 0, 0}}, // sig 000
		{RID: 5, Dist2: 0.5, Key: []float64{1, 1, 1}}, // sig 111
	}
	qsig := signature([]float64{1, 1, 1}, th)
	got := sigFilter(res, qsig, th, 1, 10)
	wantRIDs := []int64{1, 2, 5}
	if len(got) != len(wantRIDs) {
		t.Fatalf("got %d results, want %d", len(got), len(wantRIDs))
	}
	for i, n := range got {
		if n.RID != wantRIDs[i] {
			t.Fatalf("result %d: rid %d, want %d", i, n.RID, wantRIDs[i])
		}
	}
	if got := sigFilter(res, qsig, th, 1, 2); len(got) != 2 || got[1].RID != 2 {
		t.Fatalf("k truncation broken: %+v", got)
	}
	if got := sigFilter(res, qsig, th, 3, 10); len(got) != 5 {
		t.Fatalf("t=dim must pass everything, got %d", len(got))
	}
}
