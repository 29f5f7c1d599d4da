package blobindex

// One benchmark per table and figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md §3), plus build/query microbenchmarks.
// Each bench reports the paper's headline numbers as custom metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation at bench
// scale; cmd/blobbench runs the same experiments with configurable scale
// and full table output.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/amdb"
	"blobindex/internal/experiments"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/nn"
	"blobindex/internal/page"
	"blobindex/internal/pagefile"
	"blobindex/internal/workload"
)

// benchParams is the reduced scale the benchmarks run at; cmd/blobbench
// defaults to 4× this.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Images = 2000
	p.Queries = 64
	return p
}

var bench struct {
	once sync.Once
	s    *experiments.Scenario
	wl   *workload.Workload
	err  error
}

func benchScenario(b *testing.B) *experiments.Scenario {
	b.Helper()
	bench.once.Do(func() {
		bench.s, bench.err = experiments.NewScenario(benchParams())
		if bench.err != nil {
			return
		}
		bench.wl, bench.err = bench.s.Workload()
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return bench.s
}

// benchTree returns the bulk-loaded tree for the access method, built once.
func benchTree(b *testing.B, kind am.Kind) *gist.Tree {
	b.Helper()
	tree, err := benchScenario(b).Tree(kind, false)
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

// analyze runs a fresh (uncached) amdb analysis so every benchmark
// iteration performs the full workload execution.
func analyze(b *testing.B, tree *gist.Tree, skipOptimal bool) *amdb.Report {
	b.Helper()
	s := benchScenario(b)
	rep, err := amdb.Analyze(tree, bench.wl.Queries, amdb.Config{
		TargetUtil:  s.Params.TargetUtil,
		Seed:        s.Params.Seed + 3,
		SkipOptimal: skipOptimal,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkFig6Recall regenerates Figure 6: recall of reduced-dimensionality
// queries against the full Blobworld ranking. Reported metrics: recall at
// 200 returned images for 1-D and 5-D data, and the 5-D/6-D gap the paper
// calls negligible.
func BenchmarkFig6Recall(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(s)
		if err != nil {
			b.Fatal(err)
		}
		at := func(dim, size int) float64 {
			for di, d := range res.Dims {
				if d != dim {
					continue
				}
				for si, sz := range res.Sizes {
					if sz == size {
						return res.Recall[di][si]
					}
				}
			}
			return -1
		}
		b.ReportMetric(at(1, 40), "recall1D@40")
		b.ReportMetric(at(5, 40), "recall5D@40")
		b.ReportMetric(at(6, 40)-at(5, 40), "gap5Dto6D@40")
	}
}

// BenchmarkTable2Losses regenerates Table 2: bulk- vs insertion-loaded
// R-tree losses.
func BenchmarkTable2Losses(b *testing.B) {
	s := benchScenario(b)
	bulk, err := s.Tree(am.KindRTree, false)
	if err != nil {
		b.Fatal(err)
	}
	ins, err := s.Tree(am.KindRTree, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulkRep := analyze(b, bulk, false)
		insRep := analyze(b, ins, false)
		b.ReportMetric(bulkRep.Totals.ExcessLoss, "bulkExcess")
		b.ReportMetric(insRep.Totals.ExcessLoss, "insExcess")
		b.ReportMetric(insRep.Totals.UtilLoss, "insUtil")
		b.ReportMetric(float64(insRep.Totals.LeafIOs)/float64(bulkRep.Totals.LeafIOs), "insOverBulk")
	}
}

// BenchmarkFig7TraditionalLossPct regenerates Figure 7: loss percentages
// for the R-, SR- and SS-tree.
func BenchmarkFig7TraditionalLossPct(b *testing.B) {
	rt := benchTree(b, am.KindRTree)
	sr := benchTree(b, am.KindSRTree)
	ss := benchTree(b, am.KindSSTree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(100*analyze(b, rt, false).Totals.ExcessPct(), "rtreeExcess%")
		b.ReportMetric(100*analyze(b, sr, false).Totals.ExcessPct(), "srtreeExcess%")
		b.ReportMetric(100*analyze(b, ss, false).Totals.ExcessPct(), "sstreeExcess%")
	}
}

// BenchmarkFig8TraditionalLossIOs regenerates Figure 8: absolute leaf-level
// losses. The paper's headline: the SS-tree's excess coverage alone exceeds
// the R-tree's total I/Os.
func BenchmarkFig8TraditionalLossIOs(b *testing.B) {
	rt := benchTree(b, am.KindRTree)
	ss := benchTree(b, am.KindSSTree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtRep := analyze(b, rt, false)
		ssRep := analyze(b, ss, false)
		b.ReportMetric(rtRep.Totals.ExcessLoss, "rtreeExcessIOs")
		b.ReportMetric(ssRep.Totals.ExcessLoss, "sstreeExcessIOs")
		b.ReportMetric(ssRep.Totals.ExcessLoss/float64(rtRep.Totals.TotalIOs()), "ssExcessOverRTotal")
	}
}

// BenchmarkTable3BPSizes regenerates Table 3: bounding predicate sizes.
func BenchmarkTable3BPSizes(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Words), r.AM+"Words")
		}
	}
}

// BenchmarkFig14NewAMLossPct regenerates Figure 14: leaf-level loss
// percentages of the R-tree vs the new access methods.
func BenchmarkFig14NewAMLossPct(b *testing.B) {
	rt := benchTree(b, am.KindRTree)
	amap := benchTree(b, am.KindAMAP)
	jb := benchTree(b, am.KindJB)
	xjb := benchTree(b, am.KindXJB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(100*analyze(b, rt, false).Totals.ExcessPct(), "rtreeExcess%")
		b.ReportMetric(100*analyze(b, amap, false).Totals.ExcessPct(), "amapExcess%")
		b.ReportMetric(100*analyze(b, jb, false).Totals.ExcessPct(), "jbExcess%")
		b.ReportMetric(100*analyze(b, xjb, false).Totals.ExcessPct(), "xjbExcess%")
	}
}

// BenchmarkFig15NewAMLossIOs regenerates Figure 15: absolute leaf-level
// losses and leaf I/Os per query for the new access methods.
func BenchmarkFig15NewAMLossIOs(b *testing.B) {
	rt := benchTree(b, am.KindRTree)
	jb := benchTree(b, am.KindJB)
	xjb := benchTree(b, am.KindXJB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtRep := analyze(b, rt, false)
		jbRep := analyze(b, jb, false)
		xjbRep := analyze(b, xjb, false)
		b.ReportMetric(rtRep.AvgLeafIOsPerQuery(), "rtreeLeafPerQuery")
		b.ReportMetric(jbRep.AvgLeafIOsPerQuery(), "jbLeafPerQuery")
		b.ReportMetric(xjbRep.AvgLeafIOsPerQuery(), "xjbLeafPerQuery")
		b.ReportMetric(jbRep.Totals.ExcessLoss, "jbExcessIOs")
	}
}

// BenchmarkFig16TotalIOs regenerates Figure 16: total workload I/Os (inner
// plus leaf) for the R-tree vs the new access methods.
func BenchmarkFig16TotalIOs(b *testing.B) {
	rt := benchTree(b, am.KindRTree)
	amap := benchTree(b, am.KindAMAP)
	jb := benchTree(b, am.KindJB)
	xjb := benchTree(b, am.KindXJB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(analyze(b, rt, true).Totals.TotalIOs()), "rtreeTotalIOs")
		b.ReportMetric(float64(analyze(b, amap, true).Totals.TotalIOs()), "amapTotalIOs")
		b.ReportMetric(float64(analyze(b, jb, true).Totals.TotalIOs()), "jbTotalIOs")
		b.ReportMetric(float64(analyze(b, xjb, true).Totals.TotalIOs()), "xjbTotalIOs")
	}
}

// BenchmarkScanThreshold regenerates the §3.2/§6 disk-economics checks: the
// random:sequential cost ratio and the fraction of pages a query touches.
func BenchmarkScanThreshold(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scan(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "randToSeqRatio")
		for _, row := range res.Rows {
			if row.AM == string(am.KindXJB) {
				b.ReportMetric(1/row.PagesFraction, "xjbOneInNPages")
				b.ReportMetric(row.Speedup, "xjbSpeedupVsScan")
			}
		}
	}
}

// BenchmarkStructure regenerates the §5/§6 structural observations: tree
// heights per access method.
func BenchmarkStructure(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Structure(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Height), r.AM+"Height")
		}
	}
}

// BenchmarkAblationBulkOrder compares STR against a naive sort as the
// bulk-load order (DESIGN.md §4 ablation).
func BenchmarkAblationBulkOrder(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBulkOrder(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].LeafIOs)/float64(rows[0].LeafIOs), "naiveOverSTR")
	}
}

// BenchmarkAblationXJBX sweeps XJB's X (DESIGN.md §4 ablation) and reports
// the automatic selection.
func BenchmarkAblationXJBX(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationXJB(s, []int{2, 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AutoX), "autoX")
		b.ReportMetric(float64(res.Rows[1].LeafIOs), "x10LeafIOs")
	}
}

// BenchmarkBuild measures bulk-load throughput per access method.
func BenchmarkBuild(b *testing.B) {
	s := benchScenario(b)
	pts := workload.Points(s.Reduced(s.Params.Dim))
	for _, kind := range am.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			ext, err := am.New(kind, am.Options{
				AMAPSamples: 64, // keep the aMAP build bench affordable
				XJBX:        s.Params.XJBX,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg := gist.Config{Dim: s.Params.Dim, PageSize: s.Params.PageSize}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gist.BulkLoad(ext, cfg, pts, 1.0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(pts)*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkSearchKNN measures 200-NN query latency per access method on the
// steady-state serving path: the Into search variant with a reused result
// buffer, so -benchmem shows the hot path's true allocation rate.
func BenchmarkSearchKNN(b *testing.B) {
	s := benchScenario(b)
	reduced := s.Reduced(s.Params.Dim)
	rng := rand.New(rand.NewSource(99))
	for _, kind := range am.Kinds() {
		tree := benchTree(b, kind)
		b.Run(string(kind), func(b *testing.B) {
			dst := make([]nn.Result, 0, s.Params.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := reduced[rng.Intn(len(reduced))]
				dst, _ = nn.SearchCtxInto(nil, tree, q, s.Params.K, nil, dst[:0])
				if len(dst) != s.Params.K {
					b.Fatalf("got %d results", len(dst))
				}
			}
		})
	}
}

// BenchmarkStackSearch measures 200-NN search through the facade over a
// durable index's segment stack, the reader's view on an ingesting index:
// a 7 000-point base file segment, then 500 inserts and 50 deletes per seal
// (tombstones), and an active memory segment of 500 points. The segments
// metric is the stack's depth.
func BenchmarkStackSearch(b *testing.B) {
	const dim, k = 5, 200
	for _, segments := range []int{2, 9, 27} {
		b.Run(fmt.Sprintf("segments=%d", segments), func(b *testing.B) {
			ix := stackFixture(b, segments, 7000, 500, 50, dim)
			defer ix.Close()
			rng := rand.New(rand.NewSource(99))
			queries := make([][]float64, 64)
			for i := range queries {
				queries[i] = randKey(rng, dim)
			}
			dst := make([]Neighbor, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := ix.SearchInto(nil, SearchRequest{Query: queries[i%len(queries)], K: k}, dst[:0])
				if err != nil || len(resp.Neighbors) != k {
					b.Fatalf("%d results, err %v", len(resp.Neighbors), err)
				}
				dst = resp.Neighbors
			}
			b.ReportMetric(float64(segments), "segments")
		})
	}
}

// BenchmarkSearchRange measures range search per access method at each
// query's exact 200th-neighbor radius, with a reused result buffer.
func BenchmarkSearchRange(b *testing.B) {
	s := benchScenario(b)
	reduced := s.Reduced(s.Params.Dim)
	rng := rand.New(rand.NewSource(97))
	queries := make([]geom.Vector, 64)
	for i := range queries {
		queries[i] = reduced[rng.Intn(len(reduced))]
	}
	for _, kind := range am.Kinds() {
		tree := benchTree(b, kind)
		b.Run(string(kind), func(b *testing.B) {
			radii := make([]float64, len(queries))
			var buf []nn.Result
			for i, q := range queries {
				buf, _ = nn.SearchCtxInto(nil, tree, q, s.Params.K, nil, buf[:0])
				if len(buf) == 0 {
					b.Fatal("empty radius probe")
				}
				radii[i] = buf[len(buf)-1].Dist2
			}
			dst := make([]nn.Result, 0, 2*s.Params.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(queries)
				dst, _ = nn.RangeCtxInto(nil, tree, queries[j], radii[j], nil, dst[:0])
				if len(dst) < s.Params.K {
					b.Fatalf("got %d results", len(dst))
				}
			}
		})
	}
}

// BenchmarkQualityHarvest measures the production query plan end to end:
// harvest 200 candidates and report the per-AM recall of the full top-40
// (the §2.3 success criterion).
func BenchmarkQualityHarvest(b *testing.B) {
	s := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Quality(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.AM == "rtree" || r.AM == "sstree" || r.AM == "xjb" {
				b.ReportMetric(r.Recall, r.AM+"Recall")
			}
		}
	}
}

// BenchmarkCostModel exercises the disk cost model (micro).
func BenchmarkCostModel(b *testing.B) {
	model := page.Barracuda()
	stats := page.IOStats{RandomReads: 100, SequentialReads: 1000}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += model.TimeMs(stats)
	}
	_ = sink
}

// benchWorkerCounts is {1, GOMAXPROCS}, deduplicated on single-core hosts.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkBuildParallelism compares facade Build throughput at one worker
// vs all cores. The resulting trees are byte-identical (see
// TestBuildParallelismDeterministic); only wall time changes.
func BenchmarkBuildParallelism(b *testing.B) {
	s := benchScenario(b)
	reduced := s.Reduced(s.Params.Dim)
	points := make([]Point, len(reduced))
	for i, v := range reduced {
		points[i] = Point{Key: v, RID: int64(i)}
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{Method: RTree, Dim: s.Params.Dim,
				PageSize: s.Params.PageSize, Parallelism: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(points, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkBatchSearchKNN compares the batch query executor at one worker
// vs all cores over the shared workload's query centers.
func BenchmarkBatchSearchKNN(b *testing.B) {
	s := benchScenario(b)
	reduced := s.Reduced(s.Params.Dim)
	points := make([]Point, len(reduced))
	for i, v := range reduced {
		points[i] = Point{Key: v, RID: int64(i)}
	}
	ix, err := Build(points, Options{Method: RTree, Dim: s.Params.Dim,
		PageSize: s.Params.PageSize})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, len(bench.wl.Queries))
	for i, q := range bench.wl.Queries {
		queries[i] = q.Center
	}
	ctx := context.Background()
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ix.BatchSearchKNN(ctx, queries, s.Params.K, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(queries) {
					b.Fatalf("got %d result sets", len(res))
				}
			}
			b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkSearchRefine measures one refined 200-NN search in process, the
// request the bench/ refine workload serves: a seeded 48k-blob corpus, the
// 5-d index filtering at TargetRecall 0.99 (2 400 candidates), and the exact
// 218-d re-rank reading its features through a sidecar pool of ~8.5 % of
// the data pages, the workload's ratio (1 024 frames over ~12 k pages), so
// most pages are misses. Queries are distinct perturbed corpus features. It reports the
// sidecar pages pinned and missed and the features scored per search; the
// steady state allocates nothing.
func BenchmarkSearchRefine(b *testing.B) {
	const images, k, queries = 8000, 200, 256
	c, err := GenerateCorpus(CorpusConfig{Images: images, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	feats := c.Features()
	sample := make([][]float64, 0, len(feats)/4+1)
	for i := 0; i < len(feats); i += 4 {
		sample = append(sample, feats[i])
	}
	red, err := FitReducer(sample, 5)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]Point, len(feats))
	rids := make([]int64, len(feats))
	for i, key := range red.ReduceAll(feats) {
		pts[i] = Point{Key: key, RID: int64(i)}
		rids[i] = int64(i)
	}
	ix, err := Build(pts, Options{Method: XJB, Dim: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	side := filepath.Join(b.TempDir(), "blobs.side")
	if err := SaveSidecar(side, 0, red, rids, feats); err != nil {
		b.Fatal(err)
	}
	perPage := pagefile.SidecarRecordsPerPage(8192, len(feats[0]))
	dataPages := (len(feats) + perPage - 1) / perPage
	if err := ix.AttachRefine(side, (dataPages*85+999)/1000); err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	qs := make([][]float64, queries)
	for i := range qs {
		base := feats[rng.Intn(len(feats))]
		q := make([]float64, len(base))
		for d, v := range base {
			q[d] = math.Max(0, v*(1+0.1*rng.NormFloat64()))
		}
		qs[i] = q
	}
	req := SearchRequest{K: k, Refine: true, TargetRecall: 0.99}
	dst := make([]Neighbor, 0, k)
	search := func(i int) SearchResponse {
		req.Query = qs[i%queries]
		resp, err := ix.SearchInto(context.Background(), req, dst[:0])
		if err != nil || len(resp.Neighbors) != k {
			b.Fatalf("search %d: %d neighbors, %v", i, len(resp.Neighbors), err)
		}
		return resp
	}
	for i := 0; i < 8; i++ {
		search(i) // pools, scratch and the refine pool's frames warm
	}
	before, _ := ix.RefineStats()
	var pages, scored int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := search(i)
		pages += resp.Refine.Pages
		scored += resp.Refine.Scored
	}
	b.StopTimer()
	after, _ := ix.RefineStats()
	b.ReportMetric(float64(pages)/float64(b.N), "side_pages/op")
	b.ReportMetric(float64(after.Misses-before.Misses)/float64(b.N), "side_misses/op")
	b.ReportMetric(float64(scored)/float64(b.N), "scored/op")
}
