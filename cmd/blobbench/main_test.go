package main

import (
	"reflect"
	"strings"
	"testing"
)

// An unknown -experiment name is a usage error: exit 2 before the scenario
// is built, even when it rides beside a valid name.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	for _, which := range []string{"nosuch", "fig6,nosuch", ""} {
		if got := run([]string{"-experiment", which}); got != 2 {
			t.Errorf("-experiment %q: exit %d, want 2", which, got)
		}
	}
	if got := run([]string{"-nosuchflag"}); got != 2 {
		t.Errorf("unknown flag: exit %d, want 2", got)
	}
}

func TestRunSmallExperiment(t *testing.T) {
	if got := run([]string{"-images", "60", "-queries", "4", "-experiment", "scan"}); got != 0 {
		t.Fatalf("exit %d, want 0", got)
	}
}

func TestSelectExperiments(t *testing.T) {
	table := []experiment{
		{names: []string{"fig6"}},
		{names: []string{"fig7", "fig8"}},
		{names: []string{"scan"}},
		{names: []string{"chaose2e"}, explicit: true},
	}
	for _, tc := range []struct {
		which string
		want  []string // first name of each selected row, in table order
	}{
		{"all", []string{"fig6", "fig7", "scan"}},
		{"chaose2e", []string{"chaose2e"}},
		{"all,chaose2e", []string{"fig6", "fig7", "scan", "chaose2e"}},
		{"fig8", []string{"fig7"}},
		{"fig8,fig7", []string{"fig7"}},
		{" scan , fig6", []string{"fig6", "scan"}},
	} {
		sel, err := selectExperiments(table, tc.which)
		if err != nil {
			t.Fatalf("%q: %v", tc.which, err)
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.names[0])
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q selected %v, want %v", tc.which, got, tc.want)
		}
	}
	_, err := selectExperiments(table, "scan,nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) ||
		!strings.Contains(err.Error(), "fig7,fig8,scan") {
		t.Fatalf("unknown name: err %v, want it named with the valid list", err)
	}
}
