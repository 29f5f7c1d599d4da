package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"blobindex/internal/page"
)

// TestTopKMatchesSort pins TopK to the full sort it replaces: for inputs with
// many Dist2 ties across RIDs (so the RID tie-break decides), already sorted,
// reversed and all-equal inputs, and k at 0, 1, len−1, len and past len, TopK
// returns exactly the first k elements of sortResultsFast, element for
// element. The introselect's heapsort fallback is checked the same way.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	gen := func(n, distinct int) []Result {
		rs := make([]Result, n)
		for i, rid := range rng.Perm(n) {
			// Few distinct distances force ties; RIDs are unique and shuffled.
			rs[i] = Result{RID: int64(rid)*3 - 50, Dist2: float64(rng.Intn(distinct)) / 4, Leaf: page.PageID(rng.Intn(64))}
		}
		return rs
	}
	var inputs [][]Result
	for _, n := range []int{1, 2, 5, sortCutoff, sortCutoff + 1, 40, 257, 2400} {
		inputs = append(inputs, gen(n, 1+n/3), gen(n, 3))
	}
	sorted := gen(500, 1000)
	sortResultsFast(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	inputs = append(inputs, sorted, reversed, gen(300, 1))

	for _, in := range inputs {
		want := slices.Clone(in)
		sortResultsFast(want)
		n := len(in)
		for _, k := range []int{0, 1, n - 1, n, n + 5} {
			check := func(name string, got []Result) {
				t.Helper()
				wantK := want[:min(k, n)]
				if len(got) != len(wantK) {
					t.Fatalf("%s(n=%d, k=%d) kept %d, want %d", name, n, k, len(got), len(wantK))
				}
				for i := range got {
					if got[i].RID != wantK[i].RID || math.Float64bits(got[i].Dist2) != math.Float64bits(wantK[i].Dist2) ||
						got[i].Leaf != wantK[i].Leaf {
						t.Fatalf("%s(n=%d, k=%d)[%d] = %+v, want %+v", name, n, k, i, got[i], wantK[i])
					}
				}
			}
			check("TopK", TopK(slices.Clone(in), k))

			if k < n {
				// Depth budget exhausted from the start: the heapsort fallback.
				rs := slices.Clone(in)
				selectResults(rs, k, 0)
				sortResultsFast(rs[:k])
				check("selectResults(depth 0)", rs[:k])
			}
		}
	}
}
