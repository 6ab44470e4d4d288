package server_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"omos/internal/mgraph"
	"omos/internal/server"
	"omos/internal/store"
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
		checkBudget(t, r.name+" warm hit", got, r.budget)
	}
}

// checkBudget holds an allocation count to budget with 5 % headroom (at
// least 2) either way.
func checkBudget(t *testing.T, name string, got, budget float64) {
	t.Helper()
	headroom := max(budget/20, 2)
	switch {
	case got > budget+headroom:
		t.Errorf("%s: %.0f allocations, over its budget of %.0f ± %.0f", name, got, budget, headroom)
	case got < budget-headroom:
		t.Errorf("%s: %.0f allocations, under its budget of %.0f ± %.0f: lower the budget", name, got, budget, headroom)
	default:
		t.Logf("%s: %.0f allocations (budget %.0f ± %.0f)", name, got, budget, headroom)
	}
}

// TestRestartAllocBudgets pins the allocations of a warm restart, on a
// store holding the workload world's /bin/ls and /bin/codegen images
// (every head served from the store's index): AttachStore, and the
// first /bin/ls after it, which wakes ls and libc and compiles ls.
// Each row is the median of seven fresh worlds' malloc counts, held to
// an exact budget with 5 % headroom either way, as in
// TestPlanAllocBudgets.
func TestRestartAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector drift by ~8 % and vary between runs")
	}
	boot := func() *workload.OMOSWorld {
		w, err := workload.SetupOMOS(oracleCG)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	dir := t.TempDir()
	w := boot()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Srv.AttachStore(st)
	for _, p := range []string{"/bin/ls", "/bin/codegen"} {
		if _, err := w.Srv.Instantiate(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Srv.CloseStore(); err != nil {
		t.Fatal(err)
	}
	server.AgeBlobs(t, dir)

	const runs = 7
	var attach, first [runs]uint64
	for i := range runs {
		w := boot()
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		attach[i] = mallocs(func() { w.Srv.AttachStore(st) })
		first[i] = mallocs(func() {
			if _, err := w.Srv.Instantiate("/bin/ls", nil); err != nil {
				t.Fatal(err)
			}
		})
		if stats := w.Srv.Stats(); stats.ImagesBuilt != 0 || stats.StoreIndexHeads == 0 {
			t.Fatalf("restart %d: %d images built, %d index heads; want none built, heads from the index", i, stats.ImagesBuilt, stats.StoreIndexHeads)
		}
		if err := w.Srv.CloseStore(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		name   string
		budget float64
		got    [runs]uint64
	}{
		{"AttachStore", 373, attach},
		{"first /bin/ls after the attach", 4867, first},
	} {
		sorted := r.got[:]
		slices.Sort(sorted)
		checkBudget(t, fmt.Sprintf("%s (runs %v)", r.name, sorted), float64(sorted[runs/2]), r.budget)
	}
}

// mallocs returns the number of heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
