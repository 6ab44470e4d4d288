package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omos/internal/fault"
	"omos/internal/mgraph"
	"omos/internal/refusal"
)

const (
	upLibV1 = `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "int triple(int x) { return 3 * x; }")
`
	// Behaviour change: exit flips 42 -> 43, so a test can tell which
	// version an instance linked against.
	upLibV2 = `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "int triple(int x) { return 3 * x + 1; }")
`
	// A v2 that parses and stages fine but cannot link: the canary
	// cohort's builds fail, which is what the health gate watches.
	upLibV2Broken = `
(constraint-list "T" 0x1000000 "D" 0x41000000)
(source "c" "extern int missing_up(int); int triple(int x) { return missing_up(x); }")
`
	upProg = `(merge /lib/crt0.o (source "c" "extern int triple(int); int main() { return triple(14); }") /lib/up)`
)

func defineUpgradeWorld(t *testing.T, s *Server) {
	t.Helper()
	if err := s.DefineLibrary("/lib/up", upLibV1); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/t", upProg); err != nil {
		t.Fatal(err)
	}
}

func runExit(t *testing.T, s *Server) uint64 {
	t.Helper()
	inst, err := s.Instantiate("/bin/t", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runInstance(t, s, inst, nil)
	return code
}

// TestUpgradeCanaryCommitFlow is the tentpole's happy path: an epoch
// routes the cohort to staged v2 while the namespace keeps serving v1,
// and commit makes the cohort's images the cache everyone hits.
func TestUpgradeCanaryCommitFlow(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	if code := runExit(t, s); code != 42 {
		t.Fatalf("v1 exit = %d, want 42", code)
	}

	id, err := s.UpgradeStart(100)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty epoch id")
	}
	if _, err := s.UpgradeStart(100); err == nil {
		t.Fatal("second concurrent epoch allowed")
	}
	if err := s.UpgradeStage("/lib/up", upLibV2, true); err != nil {
		t.Fatal(err)
	}

	// The cohort builds and runs v2.
	if code := runExit(t, s); code != 43 {
		t.Fatalf("canary exit = %d, want 43 (v2)", code)
	}
	st := s.UpgradeStatus()
	if !st.Active || st.CohortRuns == 0 || st.CohortFails != 0 {
		t.Fatalf("status = %+v", st)
	}
	if s.Stats().CanaryInstantiations == 0 {
		t.Fatal("no canary instantiations counted")
	}

	// Commit: the committed content is exactly the staged content, so
	// the canary's image is a cache hit for everyone — no new build.
	built := s.Stats().ImagesBuilt
	if err := s.UpgradeCommit(); err != nil {
		t.Fatal(err)
	}
	if code := runExit(t, s); code != 43 {
		t.Fatalf("post-commit exit = %d, want 43", code)
	}
	if got := s.Stats().ImagesBuilt; got != built {
		t.Fatalf("post-commit instantiation rebuilt %d images, want cache hit", got-built)
	}
	if st := s.UpgradeStatus(); st.Active {
		t.Fatalf("epoch still active after commit: %+v", st)
	}
	if got := s.Stats().UpgradesCommitted; got != 1 {
		t.Fatalf("UpgradesCommitted = %d, want 1", got)
	}
}

// TestUpgradeCanaryDeterministic: the canary decision is a pure
// function of (epoch, program), so a client's retries converge on one
// cohort instead of flapping between versions; 0%% routes no one.
func TestUpgradeCanaryDeterministic(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	if _, err := s.UpgradeStart(50); err != nil {
		t.Fatal(err)
	}
	meta, err := evalCtx{s: s}.LookupMeta("/bin/t")
	if err != nil {
		t.Fatal(err)
	}
	first := s.canaryPick("/bin/t", meta)
	for i := 0; i < 16; i++ {
		if got := s.canaryPick("/bin/t", meta); got != first {
			t.Fatalf("pick flapped: %v then %v", first, got)
		}
	}
	if err := s.UpgradeRollback("test cleanup"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpgradeStart(0); err != nil {
		t.Fatal(err)
	}
	if s.canaryPick("/bin/t", meta) {
		t.Fatal("0%% canary routed a program to the cohort")
	}
}

// TestUpgradeCanaryShareMatchesPercentage: over many programs the
// share routed to the cohort is the percentage asked for.  (Reducing a
// single hash byte mod 100 favoured residues 0-55, so a 10% canary
// took 11.7% and a 50% canary 58.6%.)  With 40,000 programs one
// standard deviation of the share is at most a quarter point, so the
// one-point tolerance is four of them.
func TestUpgradeCanaryShareMatchesPercentage(t *testing.T) {
	const progs = 40000
	for _, pct := range []int{1, 10, 50, 90} {
		s := newTestServer(t)
		if _, err := s.UpgradeStart(pct); err != nil {
			t.Fatal(err)
		}
		picked := 0
		for i := 0; i < progs; i++ {
			meta := &mgraph.Meta{SrcHash: digestStr("synthetic", fmt.Sprint(i))}
			if s.canaryPick(fmt.Sprintf("/bin/p%d", i), meta) {
				picked++
			}
		}
		if share := 100 * float64(picked) / progs; share < float64(pct)-1 || share > float64(pct)+1 {
			t.Errorf("%d%% canary routed %.2f%% of %d programs, want within one point", pct, share, progs)
		}
	}
}

// TestUpgradeAutoRollbackOnCanaryRegression: a staged v2 whose cohort
// builds fail trips the health gate, which rolls the epoch back
// automatically and pins the typed verdict; the namespace serves v1
// with zero instantiations bound to v2.
func TestUpgradeAutoRollbackOnCanaryRegression(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	if code := runExit(t, s); code != 42 {
		t.Fatalf("v1 exit = %d", code)
	}
	if _, err := s.UpgradeStart(100); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeStage("/lib/up", upLibV2Broken, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate("/bin/t", nil); err == nil {
		t.Fatal("broken canary build succeeded")
	}
	if st := s.UpgradeStatus(); st.Active {
		t.Fatalf("epoch survived the regression: %+v", st)
	}
	ab := s.LastUpgradeAborted()
	if ab == nil || !ab.Auto || !strings.Contains(ab.Verdict, "EWMA") {
		t.Fatalf("aborted verdict = %+v", ab)
	}
	if got := s.Stats().UpgradesRolledBack; got != 1 {
		t.Fatalf("UpgradesRolledBack = %d, want 1", got)
	}
	// Post-rollback instantiations bind v1 only.
	if code := runExit(t, s); code != 42 {
		t.Fatalf("post-rollback exit = %d, want 42 (v1)", code)
	}
	// A stage into the dead epoch surfaces the typed abort.
	err := s.UpgradeStage("/lib/up", upLibV2, true)
	var ua *refusal.UpgradeAbortedError
	if !errors.As(err, &ua) {
		t.Fatalf("stage after abort = %v, want *refusal.UpgradeAbortedError", err)
	}
}

// TestUpgradeEpochCarriesRebindAllow: commit flows every staged
// definition through the rebind guard with the epoch's own allow — a
// multi-library upgrade can't be half-guarded by one call omitting the
// flag, and the plain define path stays guarded.
func TestUpgradeEpochCarriesRebindAllow(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	if code := runExit(t, s); code != 42 {
		t.Fatalf("v1 exit = %d", code)
	}
	// The guard is live: a bare redefine of the running program's
	// library is refused.
	if err := s.DefineLibrary("/lib/up", upLibV2); err == nil {
		t.Fatal("bare redefine of a live program's library was allowed")
	}
	if _, err := s.UpgradeStart(0); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeStage("/lib/up", upLibV2, true); err != nil {
		t.Fatal(err)
	}
	allowed := s.Stats().RebindsAllowed
	if err := s.UpgradeCommit(); err != nil {
		t.Fatalf("epoch commit hit the guard: %v", err)
	}
	if got := s.Stats().RebindsAllowed; got <= allowed {
		t.Fatalf("RebindsAllowed = %d, want > %d (epoch-carried allow)", got, allowed)
	}
	if code := runExit(t, s); code != 43 {
		t.Fatalf("post-commit exit = %d, want 43", code)
	}
}

// TestUpgradeMidCommitCrashWarmRestart is the torn-namespace drill: a
// daemon killed mid-commit — durable intent written, apply cut short,
// even partially done — must warm-restart into the fully-committed
// namespace, byte-identical to an uninterrupted control.
func TestUpgradeMidCommitCrashWarmRestart(t *testing.T) {
	lib2V1 := strings.Replace(strings.Replace(upLibV1, "triple", "quad", 1), "0x1000000", "0x2000000", 1)
	lib2V1 = strings.Replace(lib2V1, "0x41000000", "0x42000000", 1)
	lib2V2 := strings.Replace(strings.Replace(upLibV2, "triple", "quad", 1), "0x1000000", "0x2000000", 1)
	lib2V2 = strings.Replace(lib2V2, "0x41000000", "0x42000000", 1)
	prog := `(merge /lib/crt0.o (source "c" "extern int triple(int); extern int quad(int); int main() { return triple(7) + quad(7); }") /lib/up /lib/up2)`
	setup := func(s *Server) {
		t.Helper()
		if err := s.DefineLibrary("/lib/up", upLibV1); err != nil {
			t.Fatal(err)
		}
		if err := s.DefineLibrary("/lib/up2", lib2V1); err != nil {
			t.Fatal(err)
		}
		if err := s.Define("/bin/app", prog); err != nil {
			t.Fatal(err)
		}
	}
	stage := func(s *Server) {
		t.Helper()
		if _, err := s.UpgradeStart(0); err != nil {
			t.Fatal(err)
		}
		if err := s.UpgradeStage("/lib/up", upLibV2, true); err != nil {
			t.Fatal(err)
		}
		if err := s.UpgradeStage("/lib/up2", lib2V2, true); err != nil {
			t.Fatal(err)
		}
	}

	// Control: the same two-library upgrade, committed uninterrupted.
	dirA := t.TempDir()
	sA := newTestServer(t)
	sA.AttachStore(openStore(t, dirA, 0))
	setup(sA)
	if _, err := sA.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	stage(sA)
	if err := sA.UpgradeCommit(); err != nil {
		t.Fatal(err)
	}
	// Pin the namespace-generation clock before the v2 build: the
	// binding provenance records the generation, and the two worlds
	// reach this point through different mutation histories.  With the
	// clock pinned, the blob comparison below is exact — any byte that
	// differs is real content, not the logical clock.
	sA.hashGen.Store(1 << 20)
	instA, err := sA.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, codeA := runInstance(t, sA, instA, nil)
	if err := sA.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Crash run: the commit faults after the durable intent is written,
	// and the "crash" leaves one of the two libraries already applied —
	// the torn state recovery must repair.
	dirB := t.TempDir()
	sB := newTestServer(t)
	sB.AttachStore(openStore(t, dirB, 0))
	setup(sB)
	if _, err := sB.Instantiate("/bin/app", nil); err != nil {
		t.Fatal(err)
	}
	stage(sB)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteUpgradeCommit, Kind: fault.KindError, EveryN: 1, Count: 1})
	sB.SetFaults(f)
	if err := sB.UpgradeCommit(); err == nil {
		t.Fatal("faulted commit succeeded")
	}
	if err := sB.define("/lib/up", upLibV2, true, true); err != nil {
		t.Fatal(err)
	}
	if err := sB.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Warm restart on the crashed store: the committing record is
	// redone in full — both libraries land at v2, never one of two.
	sB2 := newTestServer(t)
	sB2.AttachStore(openStore(t, dirB, 0))
	if got := sB2.Stats().UpgradesCommitted; got != 1 {
		t.Fatalf("recovery did not complete the commit: UpgradesCommitted = %d", got)
	}
	sB2.nsMu.RLock()
	srcUp := sB2.ns["/lib/up"].meta.Src
	srcUp2 := sB2.ns["/lib/up2"].meta.Src
	sB2.nsMu.RUnlock()
	if srcUp != upLibV2 || srcUp2 != lib2V2 {
		t.Fatalf("torn namespace after recovery:\n/lib/up = %q\n/lib/up2 = %q", srcUp, srcUp2)
	}
	if err := sB2.Define("/bin/app", prog); err != nil {
		t.Fatal(err)
	}
	sB2.hashGen.Store(1 << 20)
	instB, err := sB2.Instantiate("/bin/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, codeB := runInstance(t, sB2, instB, nil)
	if codeB != codeA {
		t.Fatalf("recovered exit = %d, control = %d", codeB, codeA)
	}
	if instB.Key != instA.Key {
		t.Fatalf("image identity drift: %s vs control %s", instB.Key, instA.Key)
	}
	// Pin the recovered image byte-identical to the control's blob.
	blobA, err := os.ReadFile(filepath.Join(dirA, instA.Key+".img"))
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := os.ReadFile(filepath.Join(dirB, instB.Key+".img"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blobA) != string(blobB) {
		for i := 48; i < len(blobA); i++ {
			if i < len(blobB) && blobA[i] != blobB[i] {
				lo, hi := i-16, i+32
				if lo < 0 {
					lo = 0
				}
				if hi > len(blobA) {
					hi = len(blobA)
				}
				t.Logf("first diff at offset %d:\nA: %x\nB: %x", i, blobA[lo:hi], blobB[lo:hi])
				break
			}
		}
		t.Fatalf("recovered image blob differs from uninterrupted control (%d vs %d bytes)", len(blobB), len(blobA))
	}
	if err := sB2.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeInterruptedBeforeCommitRollsBackAtBoot: an epoch that
// never reached commit is discarded at warm boot — the namespace boots
// v1 as if the epoch never happened, and the abort is recorded.
func TestUpgradeInterruptedBeforeCommitRollsBackAtBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t)
	s1.AttachStore(openStore(t, dir, 0))
	defineUpgradeWorld(t, s1)
	if _, err := s1.UpgradeStart(100); err != nil {
		t.Fatal(err)
	}
	if err := s1.UpgradeStage("/lib/up", upLibV2, true); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	s2.AttachStore(openStore(t, dir, 0))
	if got := s2.Stats().UpgradesRolledBack; got != 1 {
		t.Fatalf("UpgradesRolledBack = %d, want 1", got)
	}
	ab := s2.LastUpgradeAborted()
	if ab == nil || !strings.Contains(ab.Verdict, "interrupted") {
		t.Fatalf("aborted = %+v", ab)
	}
	defineUpgradeWorld(t, s2)
	if code := runExit(t, s2); code != 42 {
		t.Fatalf("post-recovery exit = %d, want 42 (v1)", code)
	}
	if err := s2.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeStatusLineAndAudit: the stats line tracks the epoch
// lifecycle and Explain attaches the upgrade history of the symbols'
// definers.
func TestUpgradeStatusLineAndAudit(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	if line := s.UpgradeStatsLine(); !strings.Contains(line, "upgrade: idle") {
		t.Fatalf("idle line = %q", line)
	}
	if _, err := s.UpgradeStart(25); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeStage("/lib/up", upLibV2, true); err != nil {
		t.Fatal(err)
	}
	line := s.UpgradeStatsLine()
	if !strings.Contains(line, "canary=25%") || !strings.Contains(line, "libs=/lib/up") {
		t.Fatalf("active line = %q", line)
	}
	if err := s.UpgradeRollback("drill"); err != nil {
		t.Fatal(err)
	}
	if line := s.UpgradeStatsLine(); !strings.Contains(line, `last-aborted="drill"`) {
		t.Fatalf("post-rollback line = %q", line)
	}
	audit := s.UpgradeAudit()
	joined := strings.Join(audit, "\n")
	for _, want := range []string{"opened", "staged /lib/up", "rolled back: drill"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("audit missing %q:\n%s", want, joined)
		}
	}
	// Explain surfaces the history for symbols the staged path defines.
	if code := runExit(t, s); code != 42 {
		t.Fatalf("exit = %d", code)
	}
	text, err := s.Explain("triple")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "upgrade history:") || !strings.Contains(text, "rolled back: drill") {
		t.Fatalf("explain missing upgrade history:\n%s", text)
	}
}

// TestOptionalImportDegradesAndRecovers: an optional import builds
// against its fallback stub while the definer is absent (counted), and
// re-resolves to the real definer — under a different content hash, so
// no stale stub image is served — once it appears.
func TestOptionalImportDegradesAndRecovers(t *testing.T) {
	s := newTestServer(t)
	prog := `(merge /lib/crt0.o
  (source "c" "extern int maybe_v; int main() { return maybe_v + 35; }")
  (optional /lib/maybe (source "c" "int maybe_v = 7;")))`
	if err := s.Define("/bin/opt", prog); err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate("/bin/opt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := runInstance(t, s, inst, nil); code != 42 {
		t.Fatalf("stubbed exit = %d, want 42 (fallback)", code)
	}
	if got := s.Stats().OptionalStubsServed; got == 0 {
		t.Fatal("no optional stub counted")
	}

	// The definer appears: the availability is part of the content
	// hash, so the program re-instantiates against the real thing.
	if err := s.Define("/lib/maybe", `(source "c" "int maybe_v = 8;")`); err != nil {
		t.Fatal(err)
	}
	inst2, err := s.Instantiate("/bin/opt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Key == inst.Key {
		t.Fatal("optional availability not folded into the image identity")
	}
	if _, code := runInstance(t, s, inst2, nil); code != 43 {
		t.Fatalf("resolved exit = %d, want 43 (real definer)", code)
	}
}

// TestUpgradeRollbackEvictsDependents: rolling back an epoch with no
// cohort traffic evicts the staged library's cached images — and must
// take the cached programs linking against them along, or the next
// warm hit maps released frames and exec-faults (found by driving the
// CLI: stage, rollback, run).
func TestUpgradeRollbackEvictsDependents(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	if code := runExit(t, s); code != 42 {
		t.Fatalf("v1 exit = %d, want 42", code)
	}
	if _, err := s.UpgradeStart(50); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeStage("/lib/up", upLibV2, true); err != nil {
		t.Fatal(err)
	}
	// No cohort traffic at all: the cohortProgs set is empty, so the
	// only eviction path that can save the cached program is the
	// dependent closure.
	if err := s.UpgradeRollback("operator drill"); err != nil {
		t.Fatal(err)
	}
	if code := runExit(t, s); code != 42 {
		t.Fatalf("post-rollback exit = %d, want 42", code)
	}
}

// TestFaultCanaryRootPanicCountsCohortFailure: a panic contained in a
// canary instantiation's root is the cohort failure the health gate
// sees.  Three baseline failures first raise the baseline, so one
// cohort failure stays under the gate and the epoch stays open to be
// read.
func TestFaultCanaryRootPanicCountsCohortFailure(t *testing.T) {
	s := newTestServer(t)
	defineUpgradeWorld(t, s)
	f := fault.New(1)
	s.SetFaults(f)
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindError, EveryN: 1, Count: 3})
	for i := 0; i < 3; i++ {
		if _, err := s.Instantiate("/bin/t", nil); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("baseline failure %d: err = %v", i, err)
		}
	}
	if _, err := s.UpgradeStart(100); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeStage("/lib/up", upLibV2, true); err != nil {
		t.Fatal(err)
	}
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindPanic, EveryN: 1, Count: 1})
	if _, err := s.Instantiate("/bin/t", nil); err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if st := s.UpgradeStatus(); !st.Active || st.CohortRuns != 1 || st.CohortFails != 1 {
		t.Fatalf("status = %+v; want one cohort run, failed, epoch open", st)
	}
	if code := runExit(t, s); code != 43 {
		t.Fatalf("canary exit after the panic = %d, want 43 (v2)", code)
	}
}
