package bench

import (
	"flag"
	"os"
	"strings"
	"testing"
)

const (
	goldenPath   = "testdata/quick.golden"
	goldenUpdate = "go test ./internal/bench -run TestQuickGolden -update"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run")

// entry finds a registered table by id.
func entry(t *testing.T, id string) Entry {
	t.Helper()
	for _, e := range Registry {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no table %q in the registry", id)
	return Entry{}
}

// quickRun is one run of a table at QuickConfig and the tests that
// have been handed it.
type quickRun struct {
	tab  *Table
	err  error
	seen map[string]bool
}

var quickRuns = map[string]*quickRun{}

// quickTable returns a registered table's result at QuickConfig.  The
// golden and every shape test that asks during one pass over the suite
// share a single run; a test that asks a second time (go test -count=N)
// opens the next pass with a fresh run, so -count really repeats the
// tables.  Tests in this package do not run in parallel.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	r := quickRuns[id]
	if r == nil || r.seen[t.Name()] {
		tab, err := entry(t, id).Run(QuickConfig())
		r = &quickRun{tab: tab, err: err, seen: map[string]bool{}}
		quickRuns[id] = r
	}
	r.seen[t.Name()] = true
	if r.err != nil {
		t.Fatalf("table %s: %v", id, r.err)
	}
	return r.tab
}

// TestQuickGolden holds every simulated charge of every Exact table:
// their Format() output at QuickConfig, byte for byte — what
// `omosbench -quick` prints for them.  A cost constant, a Charge* call
// or a count that moves shows up here as one differing line; a fast
// path that claims to leave the cost model alone must leave this file
// alone.
func TestQuickGolden(t *testing.T) {
	var sb strings.Builder
	for _, e := range Registry {
		if !e.Exact {
			continue
		}
		tab := quickTable(t, e.ID)
		if tab.ID != e.ID {
			t.Errorf("registry entry %q ran a table that calls itself %q", e.ID, tab.ID)
		}
		sb.WriteString(tab.Format())
		sb.WriteString("\n")
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with: %s)", err, goldenUpdate)
	}
	if got == string(wantBytes) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(wantBytes), "\n")
	table := "(before the first table)"
	for i, g := range gotLines {
		if strings.HasPrefix(g, "Table ") {
			table = g
		}
		if i >= len(wantLines) || g != wantLines[i] {
			want := "(end of file)"
			if i < len(wantLines) {
				want = wantLines[i]
			}
			t.Fatalf("%s line %d, in %q:\n got: %s\nwant: %s\nIf the simulated cost was meant to move, regenerate with: %s",
				goldenPath, i+1, table, g, want, goldenUpdate)
		}
	}
	t.Fatalf("%s has %d lines this run no longer prints; regenerate with: %s",
		goldenPath, len(wantLines)-len(gotLines), goldenUpdate)
}

// inexactShape names, for each table the golden cannot hold, the shape
// test that pins it instead.
var inexactShape = map[string]func(*testing.T){
	"concurrency": TestConcurrencyShape,
	"mesh":        TestMeshShape,
}

// TestRegistryCovered: every registered table is either pinned exactly
// by the golden or asserted on by a shape test — nothing is registered
// that tier-1 does not run.
func TestRegistryCovered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry {
		if ids[e.ID] {
			t.Errorf("table id %q registered twice", e.ID)
		}
		ids[e.ID] = true
		if !e.Exact && inexactShape[e.ID] == nil {
			t.Errorf("table %q is not Exact and no shape test is named for it in inexactShape", e.ID)
		}
	}
}
