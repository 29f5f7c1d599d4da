// Package chaoscluster is the black-box chaos harness for the sharded
// serving tier: it boots the real blobserved and blobrouted binaries over
// real TCP ports, drives a seeded, deterministic random action sequence
// (queries of every class, durable writes, maintenance triggers) while
// injecting real process and network faults — kill -9 mid-save, SIGSTOP
// stalls, graceful restarts, router↔shard partitions through an in-process
// TCP proxy — and checks everything the cluster serves against an
// in-process, fault-free oracle.
//
// The oracle mirrors the router's computation shard for shard: one
// in-memory index per partition plus the same (Dist2, RID) merge, so every
// query class — plain k-NN, range, refined k-NN, signature-filtered — is
// byte-identical by construction (bit equality on Dist/Dist2, checked via
// the FNV-64a digest convention of the PR 5 chaos experiment). After every
// fault window heals, a checkpoint resolves ambiguous writes, asserts every
// acknowledged write is present (and every acknowledged delete stays gone),
// and replays a full query battery against the oracle. Any failure is
// reproducible from (seed, action index) alone. See DESIGN.md §15.
package chaoscluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"blobindex/internal/apiclient"
	"blobindex/internal/wire"
)

// Config sizes a harness run. Zero values pick the smoke-scale defaults.
type Config struct {
	// Seeds drives one full action sequence per entry. Default {1}.
	Seeds []int64
	// Actions is the minimum seeded actions per run (forced fault coverage
	// may append a few more). Default 64.
	Actions int
	// Images sizes the datagen corpus. Default 600.
	Images int
	// Shards is the partition count: shard 0 is a saved pagefile with a
	// primary and a replica, shards 1..N-1 are online WAL-backed daemons
	// that accept writes. Default 3.
	Shards int
	// K is the base k for k-NN actions. Default 10.
	K int
	// CorpusSeed seeds datagen (fixed across runs so the corpus is shared;
	// the per-run Seeds drive only the action sequences). Default 7.
	CorpusSeed int64
	// BinDir receives the compiled daemons; a scratch dir when empty.
	BinDir string
	// Dir is the harness scratch space; a temp dir when empty.
	Dir string
	// KeepDirs leaves the scratch tree behind for debugging.
	KeepDirs bool
	// Log receives progress lines; nil is silent.
	Log func(format string, args ...any)
}

func (c *Config) fill() {
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1}
	}
	if c.Actions <= 0 {
		c.Actions = 64
	}
	if c.Images <= 0 {
		c.Images = 600
	}
	if c.Shards <= 1 {
		// At least one online shard must exist to accept writes.
		c.Shards = 3
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.CorpusSeed == 0 {
		c.CorpusSeed = 7
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
}

// Divergence is one oracle disagreement, addressable by (seed, action
// index) — the reproduction coordinates.
type Divergence struct {
	Seed        int64  `json:"seed"`
	ActionIndex int    `json:"action_index"`
	Kind        string `json:"kind"`
	Detail      string `json:"detail"`
}

// FaultRecord is one injected fault window in a run's report.
type FaultRecord struct {
	Kind        string `json:"kind"`
	Target      string `json:"target"`
	OpenAction  int    `json:"open_action"`
	HealAction  int    `json:"heal_action"`
	SaveDelayMs int    `json:"save_delay_ms,omitempty"`
}

// CheckpointReport is one post-heal convergence check.
type CheckpointReport struct {
	AfterAction int `json:"after_action"`
	// Resolved counts ambiguous writes settled by presence probes;
	// AppliedOnDaemon of them turned out to have landed.
	Resolved        int `json:"resolved"`
	AppliedOnDaemon int `json:"applied_on_daemon"`
	// AckedProbed acknowledged writes were re-probed; every insert present,
	// every delete absent, or the run fails.
	AckedProbed int `json:"acked_probed"`
	// BatteryVerified query-battery results compared byte-identical.
	BatteryVerified int `json:"battery_verified"`
	// Digest is the FNV-64a accumulation of the battery's result digests.
	Digest string `json:"digest"`
}

// RunReport is one seed's outcome.
type RunReport struct {
	Seed         int64          `json:"seed"`
	Actions      int            `json:"actions"`
	ActionCounts map[string]int `json:"action_counts"`
	Faults       []FaultRecord  `json:"faults"`
	Restarts     int            `json:"restarts"`

	QueriesVerified     int `json:"queries_verified"`
	QueriesInconclusive int `json:"queries_inconclusive"`
	QueriesUnverified   int `json:"queries_unverified_during_ambiguity"`
	ErrorsConsistent    int `json:"errors_consistent"`
	WritesAcked         int `json:"writes_acked"`
	WritesUnsettled     int `json:"writes_unsettled"`

	Checkpoints []CheckpointReport `json:"checkpoints"`
	// LiveDigest accumulates every live verified query's result digest.
	LiveDigest string `json:"live_digest"`

	AckedLost   []string     `json:"acked_lost,omitempty"`
	Divergences []Divergence `json:"divergences,omitempty"`
	Pass        bool         `json:"pass"`
}

// Report is the CHAOSE2E artifact.
type Report struct {
	Images  int         `json:"images"`
	Shards  int         `json:"shards"`
	Dim     int         `json:"dim"`
	FullDim int         `json:"full_dim"`
	K       int         `json:"k"`
	Runs    []RunReport `json:"runs"`
	Pass    bool        `json:"pass"`
}

// JSON renders the report for the CHAOSE2E_*.json artifact.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the report as an aligned table plus the verdict.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos e2e: %d-shard cluster + replica over real binaries, %d-image corpus, oracle = per-shard in-process indexes + (Dist2, RID) merge\n",
		r.Shards, r.Images)
	fmt.Fprintf(&b, "%-10s %7s %7s %6s %6s %6s %6s %6s %6s %6s %-18s\n",
		"seed", "actions", "faults", "rstrt", "qveri", "qinc", "acked", "unset", "ckpts", "diverg", "live digest")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%-10d %7d %7d %6d %6d %6d %6d %6d %6d %6d %-18s\n",
			run.Seed, run.Actions, len(run.Faults), run.Restarts,
			run.QueriesVerified, run.QueriesInconclusive,
			run.WritesAcked, run.WritesUnsettled, len(run.Checkpoints),
			len(run.Divergences), run.LiveDigest)
	}
	if r.Pass {
		b.WriteString("PASS: 0 divergences, 0 acknowledged writes lost\n")
	} else {
		b.WriteString("FAIL: see divergences / acked_lost in the artifact (reproduce with the recorded seed + action index)\n")
	}
	return b.String()
}

// resultDigest hashes a wire result list with the PR 5 convention: FNV-64a
// over each neighbor's (RID, Dist2 bits), so byte-identical answers — same
// RIDs, same order, bit-identical distances — compare equal and nothing
// else does.
func resultDigest(res []wire.Neighbor) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, n := range res {
		binary.LittleEndian.PutUint64(buf[:8], uint64(n.RID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(n.Dist2))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sameBits reports bit-equality of two wire result lists (RID, Dist, Dist2;
// Key bits too when both sides carry keys).
func sameBits(got, want []wire.Neighbor) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].RID != want[i].RID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) ||
			math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
			return false, fmt.Sprintf("result %d: got (rid %d, dist2 %x), oracle (rid %d, dist2 %x)",
				i, got[i].RID, math.Float64bits(got[i].Dist2), want[i].RID, math.Float64bits(want[i].Dist2))
		}
		if got[i].Key != nil && want[i].Key != nil {
			if len(got[i].Key) != len(want[i].Key) {
				return false, fmt.Sprintf("result %d: key dim %d vs %d", i, len(got[i].Key), len(want[i].Key))
			}
			for d := range got[i].Key {
				if math.Float64bits(got[i].Key[d]) != math.Float64bits(want[i].Key[d]) {
					return false, fmt.Sprintf("result %d: key[%d] bits differ", i, d)
				}
			}
		}
	}
	return true, ""
}

// transientErr classifies a daemon failure: explicit back-off signals
// (429/503) and transport-level failures are transient — legitimate inside
// a fault window, inconclusive for the oracle. Everything else (400, 404,
// 500, 501) is a definitive answer the oracle must agree with.
func transientErr(err error) bool {
	var se *apiclient.StatusError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	return true
}
