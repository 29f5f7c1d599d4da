package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// envInfo records where a result was measured, so a number that measured
// the neighbours or the disk instead of the program can be told apart.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	WorkdirFS  string  `json:"workdir_fs"`
	FsyncUs    float64 `json:"device_fsync_us"`
	Loadavg1   float64 `json:"loadavg_1m"`
	Noisy      bool    `json:"noisy"` // loadavg above half the cores when the run began
	Started    string  `json:"started"`
}

func loadavg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// fsName names the filesystems a work directory is likely to sit on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func recordEnv(h *harness) (envInfo, error) {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: "unknown", WorkdirFS: fsName(h.workDir), Loadavg1: loadavg1(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	env.Noisy = env.Loadavg1 > 0.5*float64(env.NProc)
	// The checkout the driver runs in is not a git repository; that is fine.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	sync, done, err := fsyncWriter(h.workDir)
	if err != nil {
		return env, err
	}
	defer done()
	s := NewSamples(200)
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := sync(); err != nil {
			return env, err
		}
		s.Add(time.Since(start))
	}
	env.FsyncUs = usOf(s.Loose(0.5))
	return env, nil
}

// resultSet is what a benchmark invocation writes: every workload run it
// made, with the environment. Claim is null by construction: the change
// that defines the benchmark claims no gain.
type resultSet struct {
	Env   envInfo   `json:"env"`
	Claim *string   `json:"claim"`
	Runs  []*result `json:"runs"`
}

func writeResultSet(path string, set *resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// printResult prints every metric of one run by name with unit, sample
// count and — for the gated ones — bound.
func printResult(w io.Writer, r *result, e2e, layers bool) {
	fmt.Fprintf(w, "\n== %s  seed %d  scale %s  conns %d  %.1fs wall  attempted %d failed %d\n",
		r.Workload, r.Seed, r.Scale, r.Conns, r.WallS, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	if e2e {
		fmt.Fprintln(tw, "end-to-end metric\tvalue\tunit\tsamples\tbound")
		for _, m := range endToEnd {
			v := r.EndToEnd[m.Name]
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%.3g (%s is better)\n", m.Name, v.Value, v.Unit, v.N, m.Bound, m.Better)
		}
	}
	if layers {
		fmt.Fprintln(tw, "per-layer metric\tvalue\tunit\tsamples\tshould move")
		for _, m := range perLayer {
			v := r.PerLayer[m.Name]
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", m.Name, v.Value, v.Unit, v.N, m.Moves)
		}
	}
	tw.Flush()
	if r.Monotone != nil {
		fmt.Fprintf(w, "ladder monotone within 5%%: %v\n", *r.Monotone)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func contractLine(r *result, e2e, layers bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if e2e {
		for name, v := range r.EndToEnd {
			metrics[name] = mv{v.Value, v.Unit}
		}
	}
	if layers {
		for name, v := range r.PerLayer {
			metrics[name] = mv{v.Value, v.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes spreads with.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// series collects each workload × end-to-end metric's values over a set.
func series(set *resultSet) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range set.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// printSpread prints, per workload × end-to-end metric of one set, the
// median and the interquartile distance as a share of it, against the
// bound. It reports whether every spread (setup_s aside) is within bound.
func printSpread(w io.Writer, set *resultSet) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian\tIQR/median\tbound\t")
	sr := series(set)
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v := sr[wl.Name][m.Name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			spread := ratio(q3-q1, medianOf(v))
			flag := ""
			if spread > m.Bound && m.Name != "setup_s" {
				flag, ok = "OVER", false
			} else if spread > m.Bound/3 && m.Name != "setup_s" {
				flag = "over a third"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.4f\t%.3g\t%s\n", wl.Name, m.Name, len(v), medianOf(v), spread, m.Bound, flag)
		}
	}
	tw.Flush()
	return ok
}

// compareSets prints, per workload × end-to-end metric, both medians, how
// much worse b is than a as a share of a, and the bound; it reports whether
// every difference is within its bound.
func compareSets(w io.Writer, a, b *resultSet) bool {
	ok := true
	sa, sb := series(a), series(b)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median (n)\tb median (n)\tb worse by\tbound\t")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := sa[wl.Name][m.Name], sb[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianOf(va), medianOf(vb)
			worse := ratio(mb-ma, math.Abs(ma))
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > m.Bound {
				flag, ok = "EXCEEDS", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.4f\t%.3g\t%s\n",
				wl.Name, m.Name, ma, len(va), mb, len(vb), worse, m.Bound, flag)
		}
	}
	tw.Flush()
	return ok
}

// benchmarkDoc is BENCHMARK.json: the driver's description of this benchmark.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []docEndToEnd `json:"end_to_end"`
	PerLayer   []docLayer    `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type docLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// describe renders BENCHMARK.json from the tables in spec.go, so the file
// the driver reads cannot drift from what the program measures.
func describe() []byte {
	doc := benchmarkDoc{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: refSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, docWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, docLayer{m.Name, m.Unit, m.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
