package experiments

import (
	"bytes"
	"testing"
)

// TestChaosExperiment runs the chaos experiment at toy scale (500 images,
// 32 queries) and holds it to its own verdict plus two stronger claims.
// Pages are read only when a Pin misses, so the queries draw the injector's
// per-page attempt ordinals in a fixed order: every injected transient or
// torn read is one retry or one give-up, and a second run reproduces the
// artifact byte for byte.
func TestChaosExperiment(t *testing.T) {
	p := DefaultParams()
	p.Images = 500
	p.Queries = 32
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		t.Helper()
		res, err := ChaosDefault(s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Fatalf("chaos failed:\n%s", res.Render())
		}
		for _, row := range res.Rows {
			if row.Faults.Transient > 0 && row.Injected.Transient == 0 {
				t.Errorf("%s at %+v: no transient fault injected", row.AM, row.Faults)
			}
			if inj := row.Injected.Transient + row.Injected.Torn; row.Retries+row.GaveUp != inj {
				t.Errorf("%s at %+v: %d retries + %d gave up, want %d injected transient+torn",
					row.AM, row.Faults, row.Retries, row.GaveUp, inj)
			}
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if first, second := run(), run(); !bytes.Equal(first, second) {
		t.Errorf("two runs gave different artifacts:\n%s\n---\n%s", first, second)
	}
}
