package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"omos/internal/fault"
)

// resumeLibs is the library fan-out of the crash-resume world: enough
// distinct libraries that a daemon can die with some checkpointed and
// some not.
const resumeLibs = 6

// defineResumeWorld installs resumeLibs independent libraries (each at
// its own preferred placement, so every session places them at the
// same addresses) and a program that calls into all of them.  The
// program exits with sum(1..resumeLibs).
func defineResumeWorld(t *testing.T, s *Server) {
	t.Helper()
	for i := 1; i <= resumeLibs; i++ {
		bp := fmt.Sprintf(
			"(constraint-list \"T\" %#x \"D\" %#x)\n(source \"c\" \"int rval%d = %d; int rfn%d() { return rval%d; }\")",
			0x0200_0000+uint64(i)*0x40_0000, 0x4200_0000+uint64(i)*0x40_0000, i, i, i, i)
		if err := s.DefineLibrary(fmt.Sprintf("/lib/rlib%d", i), bp); err != nil {
			t.Fatal(err)
		}
	}
	var src, sum strings.Builder
	libs := ""
	for i := 1; i <= resumeLibs; i++ {
		fmt.Fprintf(&src, "extern int rfn%d();\n", i)
		if i > 1 {
			sum.WriteString(" + ")
		}
		fmt.Fprintf(&sum, "rfn%d()", i)
		libs += fmt.Sprintf(" /lib/rlib%d", i)
	}
	fmt.Fprintf(&src, "int main() { return %s; }", sum.String())
	bp := fmt.Sprintf("(merge /lib/crt0.o (source \"c\" %q)%s)", src.String(), libs)
	if err := s.Define("/bin/resume", bp); err != nil {
		t.Fatal(err)
	}
}

// imageBytes snapshots an instance's read-only segments (the program
// image a client would map) for byte-identity comparison across
// sessions.
func imageBytes(t *testing.T, s *Server, inst *Instance) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, seg := range inst.ROSegs {
		data, ok := s.kern.FT.SegBytes(seg)
		if !ok {
			t.Fatalf("%s: segment %s released", inst.Name, seg.Name)
		}
		out[seg.Name] = data
	}
	return out
}

// TestCrashResumeWarmRestart is the tentpole acceptance test: a build
// killed after K of its N node checkpoints, warm-restarted on the
// same store, relinks only the missing N-K nodes and produces a
// byte-identical program image.
func TestCrashResumeWarmRestart(t *testing.T) {
	const k = 3 // libraries checkpointed before the crash
	total := resumeLibs + 1

	// Control: an uninterrupted cold build, for the identity check.
	ctl := newTestServer(t)
	ctl.SetBuildWorkers(1)
	defineResumeWorld(t, ctl)
	ctlInst, err := ctl.Instantiate("/bin/resume", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.Stats().ImagesBuilt; got != uint64(total) {
		t.Fatalf("control ImagesBuilt = %d, want %d", got, total)
	}
	wantExit := uint64(resumeLibs * (resumeLibs + 1) / 2)
	if _, code := runInstance(t, ctl, ctlInst, nil); code != wantExit {
		t.Fatalf("control exit = %d, want %d", code, wantExit)
	}

	// Session 1: the build dies at the (k+1)th link.  Serial workers
	// make the fan-out deterministic: libraries link in dependency
	// order, so exactly rlib1..rlib<k> reach their checkpoints.
	dir := t.TempDir()
	s1 := newTestServer(t)
	s1.SetBuildWorkers(1)
	s1.AttachStore(openStore(t, dir, 0))
	defineResumeWorld(t, s1)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindError, EveryN: k + 1, Count: 1})
	s1.SetFaults(f)
	if _, err := s1.Instantiate("/bin/resume", nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	st1 := s1.Stats()
	if st1.ImagesBuilt != k {
		t.Fatalf("interrupted session ImagesBuilt = %d, want %d", st1.ImagesBuilt, k)
	}
	if st1.NodesCheckpointed != k || st1.CheckpointBytes == 0 {
		t.Fatalf("interrupted session checkpoints = %d (%d bytes), want %d",
			st1.NodesCheckpointed, st1.CheckpointBytes, k)
	}
	if st1.NodesFailed == 0 {
		t.Fatalf("interrupted session NodesFailed = 0; stats = %+v", st1)
	}
	// The "crash": the server is abandoned; only the store survives.
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Session 2: warm restart on the same store.  The K surviving
	// checkpoints load; the build re-runs only the missing nodes.
	s2 := newTestServer(t)
	s2.SetBuildWorkers(1)
	if n := s2.AttachStore(openStore(t, dir, 0)); n != k {
		t.Fatalf("warm load reconstructed %d instances, want %d", n, k)
	}
	defineResumeWorld(t, s2)
	inst, err := s2.Instantiate("/bin/resume", nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if got, want := st2.ImagesBuilt, uint64(total-k); got != want {
		t.Fatalf("resumed session ImagesBuilt = %d, want %d (stats %+v)", got, want, st2)
	}
	if st2.NodesResumed != k {
		t.Fatalf("NodesResumed = %d, want %d (stats %+v)", st2.NodesResumed, k, st2)
	}
	if got, want := st2.NodesBuilt, uint64(total-k); got != want {
		t.Fatalf("NodesBuilt = %d, want %d", got, want)
	}
	if got, want := st2.NodesCheckpointed, uint64(total-k); got != want {
		t.Fatalf("resumed session checkpoints = %d, want %d", got, want)
	}

	// The resumed image must be indistinguishable from the control's.
	if inst.Key != ctlInst.Key || inst.Entry() != ctlInst.Entry() {
		t.Fatalf("identity drift: key %s vs %s, entry %#x vs %#x",
			inst.Key, ctlInst.Key, inst.Entry(), ctlInst.Entry())
	}
	got, want := imageBytes(t, s2, inst), imageBytes(t, ctl, ctlInst)
	if len(got) != len(want) {
		t.Fatalf("segment count drift: %d vs %d", len(got), len(want))
	}
	for name, wb := range want {
		gb, ok := got[name]
		if !ok {
			t.Fatalf("resumed image missing segment %s", name)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("segment %s differs after resume (%d vs %d bytes)", name, len(gb), len(wb))
		}
	}
	if _, code := runInstance(t, s2, inst, nil); code != wantExit {
		t.Fatalf("resumed exit = %d, want %d", code, wantExit)
	}
}

// TestCheckpointFaultBestEffort: a failing checkpoint never fails the
// build it rides on — it only costs the next session's resume.
func TestCheckpointFaultBestEffort(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t)
	s.SetBuildWorkers(1)
	s.AttachStore(openStore(t, dir, 0))
	defineResumeWorld(t, s)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteCheckpoint, Kind: fault.KindError, EveryN: 1})
	s.SetFaults(f)
	inst, err := s.Instantiate("/bin/resume", nil)
	if err != nil {
		t.Fatalf("build failed on a best-effort checkpoint: %v", err)
	}
	st := s.Stats()
	if st.NodesCheckpointed != 0 || st.StoreStores != 0 {
		t.Fatalf("checkpoints slipped past the fault: %+v", st)
	}
	if st.CheckpointsFailed != uint64(resumeLibs+1) {
		t.Fatalf("CheckpointsFailed = %d, want %d", st.CheckpointsFailed, resumeLibs+1)
	}
	wantExit := uint64(resumeLibs * (resumeLibs + 1) / 2)
	if _, code := runInstance(t, s, inst, nil); code != wantExit {
		t.Fatalf("exit = %d, want %d", code, wantExit)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Nothing survived, so the next session cold-builds everything.
	s2 := newTestServer(t)
	if n := s2.AttachStore(openStore(t, dir, 0)); n != 0 {
		t.Fatalf("warm load found %d instances after failed checkpoints", n)
	}
}

// TestCheckpointPanicRecovered: a panic injected inside the
// checkpoint step is contained (counted, never propagated).
func TestCheckpointPanicRecovered(t *testing.T) {
	s := newTestServer(t)
	s.AttachStore(openStore(t, t.TempDir(), 0))
	defineResumeWorld(t, s)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteCheckpoint, Kind: fault.KindPanic, EveryN: 1, Count: 2})
	s.SetFaults(f)
	if _, err := s.Instantiate("/bin/resume", nil); err != nil {
		t.Fatalf("build failed on a panicking checkpoint: %v", err)
	}
	st := s.Stats()
	if st.Recovered == 0 || st.CheckpointsFailed != 2 {
		t.Fatalf("panic not contained: recovered=%d ckpt-failed=%d", st.Recovered, st.CheckpointsFailed)
	}
	// Nodes past the fault budget checkpointed normally.
	if st.NodesCheckpointed == 0 {
		t.Fatalf("no checkpoints after budget exhausted: %+v", st)
	}
}

// TestGraphCountersAndReport: the graph counters classify outcomes
// (built vs cached) and the introspection report names the runs, with
// each node's duration.
func TestGraphCountersAndReport(t *testing.T) {
	s := newTestServer(t)
	defineResumeWorld(t, s)
	if _, err := s.Instantiate("/bin/resume", nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.NodesBuilt != uint64(resumeLibs+1) {
		t.Fatalf("NodesBuilt = %d, want %d", st.NodesBuilt, resumeLibs+1)
	}
	if _, err := s.Instantiate("/bin/resume", nil); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.NodesBuilt != uint64(resumeLibs+1) {
		t.Fatalf("warm NodesBuilt = %d, want %d", st.NodesBuilt, resumeLibs+1)
	}
	if st.NodesCached == 0 {
		t.Fatalf("second instantiation recorded no cached nodes: %+v", st)
	}
	if text, want := st.Format(), fmt.Sprintf(
		"\ngraph: built=%d rebased=0 cached=%d resumed=0 failed=0 checkpoints=0 ckpt-failed=0 ckpt-bytes=0\n",
		resumeLibs+1, st.NodesCached); !strings.Contains(text, want) {
		t.Fatalf("stats text missing %q:\n%s", want, text)
	}
	report := s.GraphReport()
	for _, want := range []string{
		"build graph: runs=2 active=0\n",
		"/bin/resume", "/lib/rlib1", "built", "cached", "dur=",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("graph report missing %q:\n%s", want, report)
		}
	}
}
