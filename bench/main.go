// Command bench is the repository's benchmark: six workloads driven against
// the real blobserved and blobrouted binaries over plain HTTP, checked
// against an in-process oracle, each followed (when traced) by an in-process
// layer ladder that attributes the time layer by layer. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh                                  every workload, both metric sets
//	bash bench/run.sh -workload serve-cold -seed 7     one workload
//	bash bench/run.sh -scale smoke                     every code path in seconds
//	bash bench/run.sh -repeat 5 -out a.json            five runs, seeds seed..seed+4
//	bash bench/run.sh -compare a.json b.json           do two sets agree within the bounds
//
// The driver's form is
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// whose last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// findRoot walks up from the working directory to the directory whose
// go.mod declares module blobindex: the repository root, whether the
// benchmark was started from there or from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module blobindex" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the blobindex repository (no go.mod declaring module blobindex above the working directory)")
		}
		dir = parent
	}
}

// newHarness locates the repository and makes a fresh work directory under
// base (default: .bench_build/work in the repository, which the root
// .gitignore names).
func newHarness(base string) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if base == "" {
		base = filepath.Join(root, ".bench_build", "work")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, binDir: filepath.Join(root, ".bench_build", "bin"), workDir: work}, nil
}

func main() {
	os.Exit(run())
}

// compareFiles prints each set's own spreads and then how the second set's
// medians sit against the first's; 0 when everything is within its bound.
func compareFiles(pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("a = %s (%d runs)\n", pathA, len(a.Runs))
	ok := printSpread(os.Stdout, a)
	fmt.Printf("b = %s (%d runs)\n", pathB, len(b.Runs))
	ok = printSpread(os.Stdout, b) && ok
	if ok = compareSets(os.Stdout, a, b) && ok; !ok {
		fmt.Println("sets do NOT agree within the bounds")
		return 1
	}
	fmt.Println("sets agree within the bounds")
	return 0
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated corpus and traffic")
		seconds  = flag.Float64("seconds", refSeconds, "measuring time the request counts are scaled to")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics with the traced ladder; -1: both")
		scaleArg = flag.String("scale", "full", "full or smoke")
		workdir  = flag.String("workdir", "", "scratch directory (default: .bench_build/work under the repository root); removed at exit")
		repeat   = flag.Int("repeat", 1, "run the selection this many times on seeds seed, seed+1, ..., alternating workload order")
		out      = flag.String("out", "", "result file (default bench/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json as this program's tables define it, and exit")
	)
	flag.Parse()
	if *desc {
		os.Stdout.Write(describe())
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	sc, ok := scales[*scaleArg]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scaleArg)
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, or non-positive -seconds or -repeat\n", *workload)
		return 2
	}
	// Two connections and the daemons need two cores to mean anything.
	if runtime.NumCPU() < conns {
		fmt.Fprintf(os.Stderr, "bench: %d CPU, need at least %d\n", runtime.NumCPU(), conns)
		return 1
	}

	h, err := newHarness(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer h.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()

	if err := h.build(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env, err := recordEnv(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("bench: nproc %d GOMAXPROCS %d %s commit %s workdir on %s fsync %.0f us loadavg %.2f noisy %v; build %.1fs\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.GitCommit, env.WorkdirFS, env.FsyncUs, env.Loadavg1, env.Noisy, h.buildS)

	e2e, layers := *trace != 1, *trace != 0
	cfg := runCfg{h: h, sc: sc, seconds: *seconds, ladder: layers, reps: sc.SetupReps}
	if !e2e {
		cfg.reps = 1 // setup_s is not reported by a traced run; spend the time on the ladder
	}
	set := &resultSet{Env: env}
	var last *result
	for rep := 0; rep < *repeat; rep++ {
		cfg.seed = *seed + int64(rep)
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			r, err := runWorkload(cfg, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(os.Stdout, r, e2e, layers)
			set.Runs = append(set.Runs, r)
			last = r
		}
	}

	path := *out
	if path == "" {
		path = filepath.Join(h.root, "bench", "out", "result.json")
	}
	if err := writeResultSet(path, set); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\nbench: wrote %s\n", path)
	if *repeat > 1 {
		printSpread(os.Stdout, set)
	}
	correct := true
	for _, r := range set.Runs {
		correct = correct && r.Correct
	}
	if len(set.Runs) == 1 {
		// The driver's form: the line says whether the answers were right.
		fmt.Println(contractLine(last, e2e, layers))
		return 0
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: a workload reported failed requests or wrong answers")
		return 1
	}
	return 0
}
