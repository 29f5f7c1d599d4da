package amdb

import (
	"math"
	"math/rand"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
	"blobindex/internal/gist"
	"blobindex/internal/str"
)

func clusteredPoints(rng *rand.Rand, n, dim, clusters int) []gist.Point {
	centers := make([]geom.Vector, clusters)
	for i := range centers {
		c := make(geom.Vector, dim)
		for d := range c {
			c[d] = rng.Float64() * 100
		}
		centers[i] = c
	}
	pts := make([]gist.Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		v := make(geom.Vector, dim)
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*3
		}
		pts[i] = gist.Point{Key: v, RID: int64(i)}
	}
	return pts
}

func buildBulk(t *testing.T, kind am.Kind, pts []gist.Point, dim int) *gist.Tree {
	t.Helper()
	ext, err := am.New(kind, am.Options{AMAPSamples: 64, XJBX: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gist.Config{Dim: dim, PageSize: 2048}
	tmp, err := gist.New(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]gist.Point, len(pts))
	copy(ordered, pts)
	str.Order(ordered, tmp.LeafCapacity())
	tree, err := gist.BulkLoad(ext, cfg, ordered, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func makeWorkload(rng *rand.Rand, pts []gist.Point, n, k int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Center: pts[rng.Intn(len(pts))].Key.Clone(), K: k}
	}
	return qs
}

func TestAnalyzeDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := clusteredPoints(rng, 3000, 2, 12)
	tree := buildBulk(t, am.KindRTree, pts, 2)
	queries := makeWorkload(rng, pts, 40, 20)

	rep, err := Analyze(tree, queries, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AM != "rtree" {
		t.Errorf("AM = %q", rep.AM)
	}
	if rep.Totals.Queries != 40 {
		t.Errorf("Queries = %d", rep.Totals.Queries)
	}
	// Per query: LeafIOs = optimal + cluster + util + excess, within float
	// tolerance (the decomposition is exact by construction).
	for i, qp := range rep.PerQuery {
		sum := qp.OptimalIOs + qp.ClusterLoss + qp.UtilLoss + qp.ExcessLoss
		if math.Abs(sum-float64(qp.LeafIOs)) > 1e-6 {
			t.Errorf("query %d: decomposition %f != leaf IOs %d", i, sum, qp.LeafIOs)
		}
		if qp.UsefulIOs > qp.LeafIOs {
			t.Errorf("query %d: useful %d > leaf %d", i, qp.UsefulIOs, qp.LeafIOs)
		}
		if qp.OptimalIOs > float64(qp.UsefulIOs)+1e-9 {
			t.Errorf("query %d: optimal %f > useful %d — ideal tree can't be worse",
				i, qp.OptimalIOs, qp.UsefulIOs)
		}
		if len(qp.Results) != 20 {
			t.Errorf("query %d returned %d results", i, len(qp.Results))
		}
	}
	// Totals equal the sum of per-query numbers.
	var leaf int
	var excess float64
	for _, qp := range rep.PerQuery {
		leaf += qp.LeafIOs
		excess += qp.ExcessLoss
	}
	if leaf != rep.Totals.LeafIOs || math.Abs(excess-rep.Totals.ExcessLoss) > 1e-9 {
		t.Error("totals do not match per-query sums")
	}
	// Percentages are in [0, 1] and sum to ≤ 1.
	p := rep.Totals.ExcessPct() + rep.Totals.UtilPct() + rep.Totals.ClusterPct()
	if p < 0 || p > 1+1e-9 {
		t.Errorf("loss fractions sum to %f", p)
	}
}

func TestAnalyzeNodeProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := clusteredPoints(rng, 2000, 2, 8)
	tree := buildBulk(t, am.KindRTree, pts, 2)
	queries := makeWorkload(rng, pts, 25, 15)

	rep, err := Analyze(tree, queries, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != rep.NumLeaves {
		t.Errorf("node profiles for %d leaves, tree has %d", len(rep.Nodes), rep.NumLeaves)
	}
	var accesses, empty int
	for _, np := range rep.Nodes {
		if np.EmptyAccesses > np.Accesses {
			t.Error("empty accesses exceed accesses")
		}
		if np.Utilization < 0 || np.Utilization > 1 {
			t.Errorf("utilization %f out of range", np.Utilization)
		}
		accesses += np.Accesses
		empty += np.EmptyAccesses
	}
	if accesses != rep.Totals.LeafIOs {
		t.Errorf("node accesses %d != total leaf IOs %d", accesses, rep.Totals.LeafIOs)
	}
	if float64(empty) != rep.Totals.ExcessLoss {
		t.Errorf("node empty accesses %d != excess loss %f", empty, rep.Totals.ExcessLoss)
	}
}

func TestAnalyzeSkipOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := clusteredPoints(rng, 1000, 2, 5)
	tree := buildBulk(t, am.KindRTree, pts, 2)
	rep, err := Analyze(tree, makeWorkload(rng, pts, 10, 10), Config{SkipOptimal: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.OptimalIOs != 0 || rep.Totals.ClusterLoss != 0 {
		t.Error("SkipOptimal should zero the clustering numbers")
	}
	if rep.Totals.LeafIOs == 0 {
		t.Error("leaf IOs must still be measured")
	}
}

func TestAnalyzeBadTargetUtil(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := clusteredPoints(rng, 100, 2, 2)
	tree := buildBulk(t, am.KindRTree, pts, 2)
	if _, err := Analyze(tree, nil, Config{TargetUtil: 1.5}); err == nil {
		t.Error("TargetUtil > 1 should error")
	}
}

func TestAnalyzeEmptyWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := clusteredPoints(rng, 200, 2, 2)
	tree := buildBulk(t, am.KindRTree, pts, 2)
	rep, err := Analyze(tree, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Queries != 0 || rep.Totals.LeafIOs != 0 {
		t.Error("empty workload should produce zero totals")
	}
	if rep.AvgLeafIOsPerQuery() != 0 || rep.PagesHitFraction() != 0 {
		t.Error("averages over zero queries should be zero")
	}
}

// The paper's central finding: for a bulk-loaded R-tree the dominant loss is
// excess coverage (Table 2 / Figure 7); and JB's excess coverage is
// negligible by comparison (Figure 15).
func TestExcessCoverageDominatesForRTreeAndJBFixesIt(t *testing.T) {
	// The paper's regime: 5-D data, result sets larger than a leaf, and a
	// workload dense enough that every point is retrieved several times.
	rng := rand.New(rand.NewSource(6))
	pts := clusteredPoints(rng, 4000, 5, 15)
	queries := makeWorkload(rng, pts, 150, 60)

	rt := buildBulk(t, am.KindRTree, pts, 5)
	rtRep, err := Analyze(rt, queries, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rtRep.Totals.ExcessLoss <= rtRep.Totals.UtilLoss ||
		rtRep.Totals.ExcessLoss <= rtRep.Totals.ClusterLoss {
		t.Errorf("R-tree losses: excess=%.1f util=%.1f cluster=%.1f; excess should dominate",
			rtRep.Totals.ExcessLoss, rtRep.Totals.UtilLoss, rtRep.Totals.ClusterLoss)
	}

	jb := buildBulk(t, am.KindJB, pts, 5)
	jbRep, err := Analyze(jb, queries, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if jbRep.Totals.ExcessLoss >= rtRep.Totals.ExcessLoss {
		t.Errorf("JB excess %.1f should be below R-tree excess %.1f",
			jbRep.Totals.ExcessLoss, rtRep.Totals.ExcessLoss)
	}
	if jbRep.Totals.LeafIOs >= rtRep.Totals.LeafIOs {
		t.Errorf("JB leaf IOs %d should be below R-tree leaf IOs %d",
			jbRep.Totals.LeafIOs, rtRep.Totals.LeafIOs)
	}
}

func TestLevelIOs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := clusteredPoints(rng, 3000, 3, 12)
	tree := buildBulk(t, am.KindRTree, pts, 3)
	queries := makeWorkload(rng, pts, 25, 20)
	rep, err := Analyze(tree, queries, Config{Seed: 61, SkipOptimal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LevelIOs) != tree.Height() {
		t.Fatalf("LevelIOs for %d levels, height %d", len(rep.LevelIOs), tree.Height())
	}
	if rep.LevelIOs[0] != rep.Totals.LeafIOs {
		t.Errorf("level 0 IOs %d != leaf IOs %d", rep.LevelIOs[0], rep.Totals.LeafIOs)
	}
	var inner int
	for _, c := range rep.LevelIOs[1:] {
		inner += c
	}
	if inner != rep.Totals.InnerIOs {
		t.Errorf("inner level IOs %d != inner total %d", inner, rep.Totals.InnerIOs)
	}
	// Every query reads the root once (deduped), so the top level count
	// equals the query count.
	if top := rep.LevelIOs[len(rep.LevelIOs)-1]; top != len(queries) {
		t.Errorf("root reads %d != queries %d", top, len(queries))
	}
}

func TestInnerExcessAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	pts := clusteredPoints(rng, 3000, 3, 12)
	tree := buildBulk(t, am.KindRTree, pts, 3)
	queries := makeWorkload(rng, pts, 25, 20)
	rep, err := Analyze(tree, queries, Config{Seed: 60, SkipOptimal: true})
	if err != nil {
		t.Fatal(err)
	}
	for qi, qp := range rep.PerQuery {
		if qp.InnerExcess < 0 || qp.InnerExcess > qp.InnerIOs {
			t.Fatalf("query %d: inner excess %d outside [0, %d]",
				qi, qp.InnerExcess, qp.InnerIOs)
		}
	}
	// The root subtree always contributes results, so for a height-2 tree
	// inner excess must be strictly below inner IOs whenever results exist.
	if rep.Totals.InnerExcessLoss >= float64(rep.Totals.InnerIOs) && rep.Totals.InnerIOs > 0 {
		t.Error("every inner access counted as excess — ancestors not credited")
	}
}

// Insertion loading must be far worse than bulk loading for the R-tree
// (Table 2's contrast).
func TestInsertionLoadedWorseThanBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusteredPoints(rng, 2500, 2, 10)
	queries := makeWorkload(rng, pts, 30, 20)

	bulk := buildBulk(t, am.KindRTree, pts, 2)
	ext, _ := am.New(am.KindRTree, am.Options{})
	ins, err := gist.New(ext, gist.Config{Dim: 2, PageSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := ins.Insert(p); err != nil {
			t.Fatal(err)
		}
	}

	bulkRep, err := Analyze(bulk, queries, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	insRep, err := Analyze(ins, queries, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if insRep.Totals.ExcessLoss <= bulkRep.Totals.ExcessLoss {
		t.Errorf("insertion-loaded excess %.1f should exceed bulk-loaded %.1f",
			insRep.Totals.ExcessLoss, bulkRep.Totals.ExcessLoss)
	}
	if insRep.Totals.LeafIOs <= bulkRep.Totals.LeafIOs {
		t.Errorf("insertion-loaded leaf IOs %d should exceed bulk-loaded %d",
			insRep.Totals.LeafIOs, bulkRep.Totals.LeafIOs)
	}
}
