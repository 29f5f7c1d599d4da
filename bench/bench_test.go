package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkDoc
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := describe(); !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json is not what `bash bench/run.sh -describe` prints; regenerate it")
	}
	if bj.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, spec %d", bj.RunSeconds, refSeconds)
	}
	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 || len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads, spec has %d, contract allows 2..8", len(bj.Workloads), len(workloads))
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, spec has %d, contract allows 1..16", n, len(endToEnd))
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics, spec has %d, contract allows 1..128", n, len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range bj.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range bj.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range bj.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

// TestSuiteAtSmokeScale runs every workload end to end against the real
// daemons at smoke scale, traced, and checks the shape of what comes out:
// every metric the spec names, exactly once, nothing else, no NaN, and the
// two serving workloads on opposite sides of the result cache.
func TestSuiteAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons; skipped under -short")
	}
	h, err := newHarness("")
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	if err := h.build(); err != nil {
		t.Fatal(err)
	}
	sc := scales["smoke"]
	cfg := runCfg{h: h, sc: sc, seed: 3, seconds: 1, ladder: true, reps: sc.SetupReps}
	for _, w := range workloads {
		r, err := runWorkload(cfg, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", w.Name, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.EndToEnd) != len(endToEnd) || len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, spec names %d and %d",
				w.Name, len(r.EndToEnd), len(r.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit || v.N < 1 || v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		hit := r.PerLayer["server.cache_hit_rate"].Value
		switch w.Name {
		case "serve-hot":
			if hit < 0.99 {
				t.Errorf("serve-hot: cache hit rate %v, want >= 0.99", hit)
			}
			if r.PerLayer["pagefile.pins_per_query"].Value != 0 {
				t.Error("serve-hot: the pager saw traffic in the closed phase")
			}
		case "serve-cold":
			if hit > 0.01 {
				t.Errorf("serve-cold: cache hit rate %v, want <= 0.01", hit)
			}
			if r.PerLayer["pagefile.miss_rate"].Value <= 0.2 {
				t.Errorf("serve-cold: pool miss rate %v, want > 0.2", r.PerLayer["pagefile.miss_rate"].Value)
			}
		case "refine":
			if r.PerLayer["pagefile.side_miss_rate"].Value <= 0 || r.EndToEnd["recall_at_k"].Value < 0.99 {
				t.Errorf("refine: side miss rate %v, recall %v", r.PerLayer["pagefile.side_miss_rate"].Value, r.EndToEnd["recall_at_k"].Value)
			}
		case "ingest-mixed", "ingest-write":
			if r.PerLayer["wal.appends_per_write"].Value < 1 || r.PerLayer["segment.seals"].Value < 1 {
				t.Errorf("%s: appends per write %v, seals %v", w.Name,
					r.PerLayer["wal.appends_per_write"].Value, r.PerLayer["segment.seals"].Value)
			}
		case "cluster":
			if got := r.PerLayer["cluster.shard_requests_per_query"].Value; got != 3 {
				t.Errorf("cluster: %v shard requests per query, want 3", got)
			}
		}
		line := contractLine(r, true, false)
		var parsed struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &parsed); err != nil || parsed.Correct == nil ||
			parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line %s: %v", w.Name, line, err)
		}
		if _, err := os.Stat(filepath.Join(h.root, "bench", "out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}
