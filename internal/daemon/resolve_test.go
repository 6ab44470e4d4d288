package daemon

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"omos"
	"omos/internal/fault"
	"omos/internal/ipc"
	"omos/internal/refusal"
)

// TestFaultRegistryPinned pins the injectable surface: TestFaultMatrix
// ranges over fault.Sites(), and `omosd -list-faults` dumps the same
// registry, so a new site added without updating this literal fails
// here — the matrix can never silently lose coverage.
func TestFaultRegistryPinned(t *testing.T) {
	wantSites := []string{
		fault.SiteBuildEval, fault.SiteBuildLink, fault.SiteCheckpoint,
		fault.SiteIPCRead, fault.SiteIPCWrite,
		fault.SiteMeshGossip, fault.SiteMeshPeerFetch, fault.SiteMeshRebalance,
		fault.SiteNamespaceHijack,
		fault.SiteFrameMake, fault.SiteResolveCache, fault.SiteStoreRead,
		fault.SiteStoreRename, fault.SiteStoreScrub, fault.SiteStoreWrite,
		fault.SiteUpgradeCanary, fault.SiteUpgradeCommit, fault.SiteUpgradeRollback,
	}
	if got := fault.Sites(); !reflect.DeepEqual(got, wantSites) {
		t.Fatalf("fault.Sites() = %v, want %v", got, wantSites)
	}
	wantKinds := []string{"corrupt", "delay", "error", "panic"}
	if got := fault.Kinds(); !reflect.DeepEqual(got, wantKinds) {
		t.Fatalf("fault.Kinds() = %v, want %v", got, wantKinds)
	}
}

// TestHijackDefenseEndToEnd: an injected definer swap at map time
// (fault site namespace.hijack) surfaces over the wire as the typed
// pin-violation error — counted, quarantined, never a silent re-bind —
// and the retried run rebuilds, re-pins, and answers correctly.
func TestHijackDefenseEndToEnd(t *testing.T) {
	sys, err := omos.NewSystemWith(omos.Options{FaultSpec: "namespace.hijack:error:n=1:count=1"})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startFaultDaemon(t, sys)
	defineWorkload(t, c)

	_, runErr := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
	var pv *refusal.PinViolationError
	if !errors.As(runErr, &pv) || pv.Image != "/bin/t" {
		t.Fatalf("pin violation detail = %+v (err %v)", pv, runErr)
	}

	// Fault budget spent: the retry rebuilds from source and succeeds.
	runUntilCorrect(t, c, 2)

	stats := callRetry(t, c, &ipc.Request{Op: ipc.OpStats}, 2).Text
	if !strings.Contains(stats, "pin-violations=1") {
		t.Fatalf("violation not counted in stats:\n%s", stats)
	}
	if !strings.Contains(stats, "rebinds-allowed=0") {
		t.Fatalf("a re-bind slipped through silently:\n%s", stats)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRebindGuardEndToEnd: a content-changing redefine of a live
// definer is refused over the wire with the typed rebind error; the
// same request with AllowRebind set is permitted, and the program
// picks up the new library on its next run.
func TestRebindGuardEndToEnd(t *testing.T) {
	sys, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startFaultDaemon(t, sys)
	defineWorkload(t, c)
	runUntilCorrect(t, c, 1)

	changed := `(source "c" "int triple(int x) { return 3 * x + 1; }")`
	_, defErr := c.Call(&ipc.Request{Op: ipc.OpDefineLib, Path: "/lib/l", Text: changed})
	var re *refusal.RebindError
	if !errors.As(defErr, &re) || re.Program != "/bin/t" || re.Symbol != "triple" {
		t.Fatalf("rebind detail = %+v (err %v)", re, defErr)
	}

	if _, err := c.Call(&ipc.Request{Op: ipc.OpDefineLib, Path: "/lib/l",
		Text: changed, AllowRebind: true}); err != nil {
		t.Fatalf("allowed redefine failed: %v", err)
	}
	resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 43 {
		t.Fatalf("exit = %d, want 43 (new library body)", resp.ExitCode)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExplainEndToEndAfterWarmRestart is the audit-surface acceptance
// criterion: after a warm restart, `omos explain <sym>` (OpExplain)
// reports the definer, the library view, and the namespace generation
// from the binding table that persisted through the store.
func TestExplainEndToEndAfterWarmRestart(t *testing.T) {
	dir := t.TempDir()

	sys, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startFaultDaemon(t, sys)
	defineWorkload(t, c)
	runUntilCorrect(t, c, 1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sys2.WarmLoaded == 0 {
		t.Fatal("nothing warm-loaded")
	}
	c2, _ := startFaultDaemon(t, sys2)
	resp, err := c2.Call(&ipc.Request{Op: ipc.OpExplain, Path: "triple"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"symbol triple:",
		"/bin/t binds triple -> /lib/l",
		"library 0 of /bin/t",
		"namespace generation",
	} {
		if !strings.Contains(resp.Text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, resp.Text)
		}
	}
	// An unknown symbol is an ordinary error, not a protocol failure.
	if _, err := c2.Call(&ipc.Request{Op: ipc.OpExplain, Path: "no_such_symbol"}); err == nil {
		t.Fatal("explain of an unrecorded symbol succeeded")
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartResolvesWithoutSearch drives the zero-search
// criterion over the wire: a warm daemon that must relink (cache
// entries dropped, binding tables kept) reports zero symbol searches
// and at least one binding hit in its stats.
func TestWarmRestartResolvesWithoutSearch(t *testing.T) {
	dir := t.TempDir()

	sys, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startFaultDaemon(t, sys)
	defineWorkload(t, c)
	runUntilCorrect(t, c, 1)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := startFaultDaemon(t, sys2)
	defineWorkload(t, c2)
	// Drop the warm program image so the run below must relink; the
	// warm-loaded binding table supplies the resolution.
	if n := sys2.Srv.Evict("/bin/t"); n == 0 {
		t.Fatal("nothing evicted")
	}
	runUntilCorrect(t, c2, 1)
	stats := callRetry(t, c2, &ipc.Request{Op: ipc.OpStats}, 2).Text
	line := ""
	for _, l := range strings.Split(stats, "\n") {
		if strings.HasPrefix(l, "resolve:") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no resolve line in stats:\n%s", stats)
	}
	if !strings.Contains(line, "searches=0") {
		t.Fatalf("warm relink searched symbols: %s", line)
	}
	if strings.Contains(line, "hits=0 ") {
		t.Fatalf("warm relink missed the binding cache: %s", line)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}
