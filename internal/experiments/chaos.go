package experiments

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"

	"blobindex/internal/am"
	"blobindex/internal/amdb"
	"blobindex/internal/faultio"
	"blobindex/internal/nn"
	"blobindex/internal/pagefile"
)

// ChaosFaults is one injected-fault configuration, each field a per-read
// probability (see internal/faultio).
type ChaosFaults struct {
	Transient float64 `json:"transient"`
	Torn      float64 `json:"torn"`
	Corrupt   float64 `json:"corrupt"`
}

// ChaosRow is one access method × fault-rate replay of the k-NN workload
// against a demand-paged index whose reads pass through the fault injector.
// The correctness contract it checks is strict: a query either fails with a
// classified error or returns neighbors byte-identical to the fault-free
// baseline — degraded means slower and sometimes unavailable, never wrong.
type ChaosRow struct {
	AM        string      `json:"am"`
	Faults    ChaosFaults `json:"faults"`
	PoolPages int         `json:"pool_pages"`
	Queries   int         `json:"queries"`
	// Query outcomes. Mismatched counts successful queries whose results
	// differ from the baseline — any nonzero value fails the experiment.
	OK              int `json:"ok"`
	FailedTransient int `json:"failed_transient"`
	FailedCorrupt   int `json:"failed_corrupt"`
	FailedOther     int `json:"failed_other"`
	Mismatched      int `json:"mismatched"`
	// Store-side retry accounting and injector-side ground truth.
	Retries  int64         `json:"retries"`
	GaveUp   int64         `json:"gave_up"`
	Injected faultio.Stats `json:"injected"`
}

// ChaosAtomicSave reports the kill-during-save probe: each trial plants a
// truncated torn temp file next to the live index (what a crash mid-Save
// leaves behind) and re-opens; the index must survive every time with its
// query results unchanged.
type ChaosAtomicSave struct {
	Trials   int  `json:"trials"`
	Survived int  `json:"survived"`
	Stable   bool `json:"digest_stable"`
}

// ChaosResult is the chaos experiment outcome; cmd/blobbench -chaosout
// serializes it into the CHAOS_*.json artifact.
type ChaosResult struct {
	Queries    int             `json:"queries"`
	K          int             `json:"k"`
	Dim        int             `json:"dim"`
	Rows       []ChaosRow      `json:"rows"`
	AtomicSave ChaosAtomicSave `json:"atomic_save"`
	Pass       bool            `json:"pass"`
	Failures   []string        `json:"failures,omitempty"`
}

// ChaosDefault replays the workload for the paper's baseline and winning
// access methods at the issue's 1% and 5% transient-fault operating points,
// the second also with torn reads and a trickle of corruption.
func ChaosDefault(s *Scenario) (*ChaosResult, error) {
	return Chaos(s,
		[]am.Kind{am.KindRTree, am.KindXJB},
		[]ChaosFaults{
			{Transient: 0.01, Torn: 0.005},
			{Transient: 0.05, Torn: 0.01, Corrupt: 0.002},
		})
}

// Chaos saves each access method's tree, records the fault-free per-query
// result digests, then replays the same workload with the store's reads
// wrapped in the deterministic fault injector at each configured rate. The
// pool is deliberately small (a quarter of the tree) so most reads actually
// hit the faulty "disk". It finishes with the torn-temp-file crash probe
// against the saved index.
func Chaos(s *Scenario, kinds []am.Kind, configs []ChaosFaults) (*ChaosResult, error) {
	wl, err := s.Workload()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "chaos")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	opts := am.Options{
		AMAPSamples: s.Params.AMAPSamples,
		AMAPSeed:    s.Params.Seed + 2,
		XJBX:        s.Params.XJBX,
	}
	res := &ChaosResult{
		Queries: len(wl.Queries),
		K:       s.Params.K,
		Dim:     s.Params.Dim,
	}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	for ki, kind := range kinds {
		tree, err := s.Tree(kind, false)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, string(kind)+".idx")
		if err := pagefile.Save(path, tree); err != nil {
			return nil, err
		}
		poolPages := tree.NumPages() / 4
		if poolPages < 1 {
			poolPages = 1
		}

		// Fault-free baseline: one digest per query, through the same paged
		// path the chaos runs use, so any divergence is the injector's doing.
		baseline, err := pagedDigests(path, opts, poolPages, wl.Queries, nil)
		if err != nil {
			return nil, err
		}

		for ci, cfg := range configs {
			var inj *faultio.Injector
			wrap := func(f faultio.File) faultio.File {
				inj = faultio.Wrap(f, faultio.Config{
					Seed:     s.Params.Seed + 31*int64(ki) + int64(ci) + 7,
					PageSize: s.Params.PageSize,
					Rates: faultio.Rates{
						Transient: cfg.Transient,
						Short:     cfg.Torn,
						Corrupt:   cfg.Corrupt,
					},
				})
				return inj
			}
			paged, store, err := pagefile.OpenPagedIO(path, opts, poolPages, wrap)
			if err != nil {
				return nil, err
			}
			row := ChaosRow{
				AM:        string(kind),
				Faults:    cfg,
				PoolPages: poolPages,
				Queries:   len(wl.Queries),
			}
			for qi, q := range wl.Queries {
				got, err := nn.SearchCtxInto(context.TODO(), paged, q.Center, q.K, nil, nil)
				switch {
				case err == nil:
					row.OK++
					if resultDigest(got) != baseline[qi] {
						row.Mismatched++
					}
				case errors.Is(err, pagefile.ErrChecksum):
					row.FailedCorrupt++
				case errors.Is(err, pagefile.ErrTransient):
					row.FailedTransient++
				default:
					row.FailedOther++
				}
			}
			st := store.PoolStats()
			row.Retries, row.GaveUp = st.Retries, st.GaveUp
			row.Injected = inj.Stats()
			store.Close()

			if row.Mismatched > 0 {
				fail("%s at %+v: %d successful queries diverged from the fault-free baseline",
					kind, cfg, row.Mismatched)
			}
			// Reads happen only on a Pin's behalf, so each injected
			// transient or torn read is either retried or given up on.
			if inj := row.Injected.Transient + row.Injected.Torn; row.Retries+row.GaveUp != inj {
				fail("%s at %+v: %d retries + %d gave up for %d injected transient or torn reads",
					kind, cfg, row.Retries, row.GaveUp, inj)
			}
			if cfg.Corrupt == 0 && row.FailedCorrupt+row.FailedOther > 0 {
				fail("%s at %+v: %d queries failed outside the transient class with no corruption injected",
					kind, cfg, row.FailedCorrupt+row.FailedOther)
			}
			res.Rows = append(res.Rows, row)
		}

		// Crash probe on the first (baseline) method only — the save path is
		// method-independent.
		if ki == 0 {
			as, err := chaosAtomicSave(path, opts, poolPages, wl.Queries, baseline)
			if err != nil {
				return nil, err
			}
			res.AtomicSave = *as
			if as.Survived != as.Trials || !as.Stable {
				fail("atomic save: %d/%d trials survived, digest stable=%v",
					as.Survived, as.Trials, as.Stable)
			}
		}
	}
	res.Pass = len(res.Failures) == 0
	return res, nil
}

// pagedDigests opens path demand-paged (reads wrapped if wrap != nil) and
// returns one result digest per query.
func pagedDigests(path string, opts am.Options, poolPages int, queries []amdb.Query, wrap func(faultio.File) faultio.File) ([]uint64, error) {
	paged, store, err := pagefile.OpenPagedIO(path, opts, poolPages, wrap)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	out := make([]uint64, len(queries))
	for qi, q := range queries {
		got, err := nn.SearchCtxInto(context.TODO(), paged, q.Center, q.K, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos baseline query %d: %w", qi, err)
		}
		out[qi] = resultDigest(got)
	}
	return out, nil
}

// chaosAtomicSave simulates a crash mid-Save: each trial writes a truncated
// prefix of the index bytes to path+".tmp" — exactly what dies between
// os.Create and the rename — then re-opens path and replays the workload.
// The previously saved index must keep answering identically.
func chaosAtomicSave(path string, opts am.Options, poolPages int, queries []amdb.Query, baseline []uint64) (*ChaosAtomicSave, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	as := &ChaosAtomicSave{Trials: 8, Stable: true}
	for trial := 0; trial < as.Trials; trial++ {
		cut := (trial + 1) * len(data) / (as.Trials + 1)
		if err := os.WriteFile(path+".tmp", data[:cut], 0o644); err != nil {
			return nil, err
		}
		digests, err := pagedDigests(path, opts, poolPages, queries, nil)
		os.Remove(path + ".tmp")
		if err != nil {
			continue // this trial lost the index: not survived
		}
		as.Survived++
		for qi := range digests {
			if digests[qi] != baseline[qi] {
				as.Stable = false
				break
			}
		}
	}
	return as, nil
}

// resultDigest hashes a result list so byte-identical answers — same RIDs,
// same order, bit-identical distances — compare equal and nothing else does.
func resultDigest(res []nn.Result) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range res {
		binary.LittleEndian.PutUint64(buf[:8], uint64(r.RID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Dist2))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// JSON renders the result for the CHAOS_*.json artifact.
func (r *ChaosResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the result as an aligned table plus the verdict.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: %d-NN workload under injected read faults (%d queries, correctness = byte-identical to fault-free run)\n", r.K, r.Queries)
	fmt.Fprintf(&b, "%-8s %10s %6s %6s %6s %6s %6s %6s %6s %8s %7s\n",
		"am", "faults t/s/c", "pool", "ok", "f-tra", "f-cor", "f-oth", "wrong", "retry", "gaveup", "inject")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10s %6d %6d %6d %6d %6d %6d %6d %8d %7d\n",
			row.AM,
			fmt.Sprintf("%.0f/%.1f/%.1f‰", row.Faults.Transient*1000, row.Faults.Torn*1000, row.Faults.Corrupt*1000),
			row.PoolPages, row.OK, row.FailedTransient, row.FailedCorrupt, row.FailedOther,
			row.Mismatched, row.Retries, row.GaveUp,
			row.Injected.Transient+row.Injected.Torn+row.Injected.Corrupted)
	}
	fmt.Fprintf(&b, "atomic save: %d/%d torn-tmp trials survived, digests stable=%v\n",
		r.AtomicSave.Survived, r.AtomicSave.Trials, r.AtomicSave.Stable)
	if r.Pass {
		b.WriteString("PASS: no successful query ever returned a wrong answer")
	} else {
		fmt.Fprintf(&b, "FAIL:\n  %s", strings.Join(r.Failures, "\n  "))
	}
	return b.String()
}
