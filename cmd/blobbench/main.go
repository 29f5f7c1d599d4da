// Command blobbench regenerates the paper's tables and figures. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"blobindex/internal/chaoscluster"
	"blobindex/internal/experiments"
	"blobindex/internal/recallbench"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// A section is one titled block of output.
type section struct {
	title string
	run   func(s *experiments.Scenario) (string, error)
}

// An experiment is one row of the table that drives -experiment's help
// text, its validation and the dispatch.
type experiment struct {
	names []string // the -experiment names that select it
	// explicit experiments run only when named, never as part of "all".
	explicit bool
	sections []section
}

// one is the common single-section experiment, titled by its names.
func one(run func(s *experiments.Scenario) (string, error), names ...string) experiment {
	return experiment{names: names, sections: []section{{strings.Join(names, "/"), run}}}
}

// run is the whole command behind main: it returns the exit status, 2 for a
// usage error (reported before any scenario is built) and 1 for a failed
// experiment.
func run(args []string) int {
	fs := flag.NewFlagSet("blobbench", flag.ContinueOnError)
	p := experiments.DefaultParams()
	fs.IntVar(&p.Images, "images", p.Images, "synthetic corpus size in images")
	fs.IntVar(&p.Queries, "queries", p.Queries, "workload query count")
	fs.IntVar(&p.K, "k", p.K, "results per query")
	fs.IntVar(&p.Dim, "dim", p.Dim, "indexed (SVD) dimensionality")
	fs.IntVar(&p.PageSize, "pagesize", p.PageSize, "page size in bytes")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.IntVar(&p.XJBX, "xjbx", p.XJBX, "XJB bite count X")
	fs.IntVar(&p.AMAPSamples, "amap-samples", p.AMAPSamples, "aMAP candidate partitions")
	workers := fs.Int("workers", 0, "replay worker pool size (0 = GOMAXPROCS)")
	pagedOut := fs.String("pagedout", "", "write the pagedio experiment's JSON to this file")
	chaosOut := fs.String("chaosout", "", "write the chaos experiment's JSON to this file")
	recallOut := fs.String("recallout", "", "write the recall experiment's JSON to this file")
	recallQueries := fs.Int("recall-queries", 0, "recall experiment query count (0 = default)")
	chaosE2EOut := fs.String("chaose2eout", "", "write the chaose2e experiment's JSON to this file")
	chaosE2ESeeds := fs.Int("chaose2e-seeds", 2, "chaose2e experiment seed count (seeds 1..N)")
	chaosE2EActions := fs.Int("chaose2e-actions", 256, "chaose2e experiment minimum actions per seed")
	chaosE2EImages := fs.Int("chaose2e-images", 900, "chaose2e experiment corpus size in images")

	table := []experiment{
		one(func(s *experiments.Scenario) (string, error) {
			return rendered(experiments.Fig6(s))
		}, "fig6"),
		one(func(s *experiments.Scenario) (string, error) {
			return rendered(experiments.Table2(s))
		}, "tab2"),
		one(func(s *experiments.Scenario) (string, error) {
			rows, err := experiments.Fig7And8(s)
			return experiments.RenderLossRows(
				"Figures 7 and 8: traditional AM losses (leaf level)", rows), err
		}, "fig7", "fig8"),
		one(func(s *experiments.Scenario) (string, error) {
			rows, err := experiments.Table3(s)
			return experiments.RenderTable3(rows, s.Params.Dim), err
		}, "tab3"),
		one(func(s *experiments.Scenario) (string, error) {
			rows, err := experiments.Fig14To16(s)
			return experiments.RenderLossRows(
				"Figures 14, 15 and 16: new AM losses and total I/Os", rows), err
		}, "fig14", "fig15", "fig16"),
		one(func(s *experiments.Scenario) (string, error) {
			return rendered(experiments.Scan(s))
		}, "scan"),
		one(func(s *experiments.Scenario) (string, error) {
			rows, err := experiments.Structure(s)
			return experiments.RenderStructure(rows), err
		}, "structure"),
		one(func(s *experiments.Scenario) (string, error) {
			return rendered(experiments.BufferSweepDefault(s))
		}, "buffer"),
		one(func(s *experiments.Scenario) (string, error) {
			r, err := experiments.PagedIODefault(s)
			if err != nil {
				return "", err
			}
			return r.Render(), writeArtifact(*pagedOut, r)
		}, "pagedio"),
		one(func(s *experiments.Scenario) (string, error) {
			rows, err := experiments.Quality(s)
			return experiments.RenderQuality(rows), err
		}, "quality"),
		one(func(s *experiments.Scenario) (string, error) {
			rows, err := experiments.WorkloadSkew(s)
			return experiments.RenderSkew(rows), err
		}, "skew"),
		{names: []string{"dynamic"}, sections: []section{dynamic("jb"), dynamic("xjb")}},
		one(func(s *experiments.Scenario) (string, error) {
			var (
				rows []experiments.ReplayRow
				err  error
			)
			if *workers > 0 {
				rows, err = experiments.ReplayThroughput(s,
					[]experiments.AMKind{"rtree", "jb", "xjb"}, []int{1, *workers})
			} else {
				rows, err = experiments.ReplayThroughputDefault(s)
			}
			return experiments.RenderReplay(rows), err
		}, "replay"),
		{names: []string{"ablations"}, sections: []section{
			{"ablation: bulk order", func(s *experiments.Scenario) (string, error) {
				rows, err := experiments.AblationBulkOrder(s)
				return experiments.RenderOrderAblation(rows), err
			}},
			{"ablation: amap samples", func(s *experiments.Scenario) (string, error) {
				rows, err := experiments.AblationAMAPSamples(s, []int{64, 256, 1024, 4096})
				return experiments.RenderAMAPAblation(rows), err
			}},
			{"ablation: rstar", func(s *experiments.Scenario) (string, error) {
				rows, err := experiments.AblationRStar(s)
				return experiments.RenderRStarAblation(rows), err
			}},
			{"ablation: xjb x", func(s *experiments.Scenario) (string, error) {
				return rendered(experiments.AblationXJB(s, []int{2, 4, 6, 8, 10, 12, 16}))
			}},
		}},
		one(func(s *experiments.Scenario) (string, error) {
			r, err := experiments.ChaosDefault(s)
			if err != nil {
				return "", err
			}
			return verdict("chaos", r.Render(), r.Pass, writeArtifact(*chaosOut, r))
		}, "chaos"),
		one(func(s *experiments.Scenario) (string, error) {
			rp := recallbench.DefaultRecallParams()
			rp.K = s.Params.K
			if *recallQueries > 0 {
				rp.Queries = *recallQueries
			}
			r, err := recallbench.Recall(s, rp)
			if err != nil {
				return "", err
			}
			return r.Render(), writeArtifact(*recallOut, r)
		}, "recall"),
		// chaose2e compiles the daemons, boots a real sharded cluster per
		// seed and injects process faults — minutes of wall clock — so it
		// never rides along with "all".
		{names: []string{"chaose2e"}, explicit: true, sections: []section{{"chaose2e",
			func(s *experiments.Scenario) (string, error) {
				seeds := make([]int64, *chaosE2ESeeds)
				for i := range seeds {
					seeds[i] = int64(i + 1)
				}
				r, err := chaoscluster.Run(chaoscluster.Config{
					Seeds:   seeds,
					Actions: *chaosE2EActions,
					Images:  *chaosE2EImages,
					K:       s.Params.K,
					Log: func(format string, args ...any) {
						fmt.Printf("# "+format+"\n", args...)
					},
				})
				if err != nil {
					return "", err
				}
				return verdict("chaose2e", r.Render(), r.Pass, writeArtifact(*chaosE2EOut, r))
			}}}},
	}

	which := fs.String("experiment", "all", "comma-separated subset of: "+usage(table))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected, err := selectExperiments(table, *which)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blobbench:", err)
		return 2
	}

	start := time.Now()
	fmt.Printf("# blobbench: %d images, %d queries, k=%d, dim=%d, page=%dB, seed=%d\n",
		p.Images, p.Queries, p.K, p.Dim, p.PageSize, p.Seed)
	s, err := experiments.NewScenario(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blobbench:", err)
		return 1
	}
	fmt.Printf("# corpus: %d blobs in %d images; setup %.1fs\n\n",
		len(s.Corpus.Blobs), s.Corpus.Images, time.Since(start).Seconds())
	for _, e := range selected {
		for _, sec := range e.sections {
			t0 := time.Now()
			out, err := sec.run(s)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blobbench: %s: %v\n", sec.title, err)
				return 1
			}
			fmt.Println(out)
			fmt.Printf("# [%s in %.1fs]\n\n", sec.title, time.Since(t0).Seconds())
		}
	}
	fmt.Printf("# done in %.1fs\n", time.Since(start).Seconds())
	return 0
}

// selectExperiments resolves a comma-separated -experiment value against the
// table, in table order. "all" selects every experiment not marked
// explicit; any other name must select a row.
func selectExperiments(table []experiment, which string) ([]experiment, error) {
	want := map[string]bool{}
	for _, w := range strings.Split(which, ",") {
		want[strings.TrimSpace(w)] = true
	}
	var selected []experiment
	for _, e := range table {
		hit := want["all"] && !e.explicit
		for _, n := range e.names {
			hit = hit || want[n]
			delete(want, n)
		}
		if hit {
			selected = append(selected, e)
		}
	}
	delete(want, "all")
	for w := range want {
		return nil, fmt.Errorf("unknown experiment %q; valid: %s", w, usage(table))
	}
	return selected, nil
}

// usage lists the valid -experiment names.
func usage(table []experiment) string {
	var names, explicit []string
	for _, e := range table {
		if e.explicit {
			explicit = append(explicit, e.names...)
		} else {
			names = append(names, e.names...)
		}
	}
	return fmt.Sprintf("all,%s (plus %s, which only runs when named explicitly)",
		strings.Join(names, ","), strings.Join(explicit, ","))
}

func dynamic(kind experiments.AMKind) section {
	return section{"dynamic " + string(kind), func(s *experiments.Scenario) (string, error) {
		rows, err := experiments.Dynamic(s, kind)
		return experiments.RenderDynamic(kind, rows), err
	}}
}

// rendered adapts an experiment that returns a renderable result.
func rendered[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// writeArtifact writes r's JSON to path; an empty path writes nothing.
func writeArtifact(path string, r interface{ JSON() ([]byte, error) }) error {
	if path == "" {
		return nil
	}
	data, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// verdict fails a pass/fail experiment after its artifact is written, so a
// red run still leaves its evidence behind.
func verdict(name, out string, pass bool, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if !pass {
		return "", fmt.Errorf("%s experiment failed:\n%s", name, out)
	}
	return out, nil
}
