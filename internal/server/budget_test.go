package server_test

import (
	"testing"

	"omos/internal/mgraph"
	"omos/internal/workload"
)

// TestPlanAllocBudgets pins the allocations of one warm hit through each
// way into the build pipeline, in a workload world: a program plan
// (which evaluates the program), a library plan made from its image's
// shape, and InstantiateLib.  Each row is an exact budget with 5 %
// headroom either way: a row over it is an allocation regression, and
// a row under it is a gain the budget should be lowered to keep.
func TestPlanAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector drift by ~8 % and vary between runs")
	}
	w, err := workload.SetupOMOS(oracleCG)
	if err != nil {
		t.Fatal(err)
	}
	libc := mgraph.LibDep{Path: "/lib/libc"}
	rows := []struct {
		name   string
		budget float64
		hit    func() error
	}{
		{"/bin/ls", 4420, func() error { _, err := w.Srv.Instantiate("/bin/ls", nil); return err }},
		{"/bin/codegen", 58930, func() error { _, err := w.Srv.Instantiate("/bin/codegen", nil); return err }},
		{"/lib/libc", 38, func() error { _, err := w.Srv.Instantiate("/lib/libc", nil); return err }},
		{"InstantiateLib(/lib/libc)", 29, func() error { _, err := w.Srv.InstantiateLib(libc, nil); return err }},
	}
	for _, r := range rows {
		if err := r.hit(); err != nil { // warm the cache
			t.Fatalf("%s: %v", r.name, err)
		}
		got := testing.AllocsPerRun(3, func() {
			if err := r.hit(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		})
		headroom := max(r.budget/20, 2)
		switch {
		case got > r.budget+headroom:
			t.Errorf("%s: %.0f allocations per warm hit, over its budget of %.0f ± %.0f", r.name, got, r.budget, headroom)
		case got < r.budget-headroom:
			t.Errorf("%s: %.0f allocations per warm hit, under its budget of %.0f ± %.0f: lower the budget", r.name, got, r.budget, headroom)
		default:
			t.Logf("%s: %.0f allocations per warm hit (budget %.0f ± %.0f)", r.name, got, r.budget, headroom)
		}
	}
}
