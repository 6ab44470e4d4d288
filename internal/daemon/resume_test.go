package daemon

import (
	"fmt"
	"strings"
	"testing"

	"omos"
	"omos/internal/ipc"
)

// resumeLibCount sizes the e2e crash-resume workload.
const resumeLibCount = 4

// defineResumeWorkload installs resumeLibCount libraries and a
// program over the wire, each library at its own preferred placement
// so every session reproduces identical addresses.
func defineResumeWorkload(t *testing.T, c *ipc.Client) {
	t.Helper()
	for i := 1; i <= resumeLibCount; i++ {
		bp := fmt.Sprintf(
			"(constraint-list \"T\" %#x \"D\" %#x)\n(source \"c\" \"int dfn%d() { return %d; }\")",
			0x0300_0000+uint64(i)*0x40_0000, 0x4300_0000+uint64(i)*0x40_0000, i, i)
		callRetry(t, c, &ipc.Request{Op: ipc.OpDefineLib,
			Path: fmt.Sprintf("/lib/dlib%d", i), Text: bp}, 4)
	}
	var src, sum strings.Builder
	libs := ""
	for i := 1; i <= resumeLibCount; i++ {
		fmt.Fprintf(&src, "extern int dfn%d();\n", i)
		if i > 1 {
			sum.WriteString(" + ")
		}
		fmt.Fprintf(&sum, "dfn%d()", i)
		libs += fmt.Sprintf(" /lib/dlib%d", i)
	}
	fmt.Fprintf(&src, "int main() { return %s; }", sum.String())
	callRetry(t, c, &ipc.Request{Op: ipc.OpDefine, Path: "/bin/dresume",
		Text: fmt.Sprintf("(merge /lib/crt0.o (source \"c\" %q)%s)", src.String(), libs)}, 4)
}

// TestDaemonCrashResume is the end-to-end resume scenario: a daemon
// dies mid-build after K node checkpoints; its warm-restarted
// replacement serves the same request by relinking only the missing
// nodes, and reports the resume in its stats and the graph op.
func TestDaemonCrashResume(t *testing.T) {
	const k = 2
	dir := t.TempDir()
	wantExit := uint64(resumeLibCount * (resumeLibCount + 1) / 2)

	// Session 1: the (k+1)th link dies; the daemon goes down with the
	// build half checkpointed.
	sys, err := omos.NewSystemWith(omos.Options{
		StoreDir:  dir,
		FaultSpec: fmt.Sprintf("build.link:error:n=%d:count=1", k+1),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Srv.SetBuildWorkers(1)
	c, _ := startFaultDaemon(t, sys)
	defineResumeWorkload(t, c)
	resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/dresume"})
	if err == nil && resp.Err == "" {
		t.Fatal("interrupted run succeeded; fault not armed")
	}
	if st := sys.Srv.Stats(); st.NodesCheckpointed != k {
		t.Fatalf("interrupted daemon checkpointed %d nodes, want %d", st.NodesCheckpointed, k)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: warm restart on the same store.
	sys2, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sys2.Srv.SetBuildWorkers(1)
	if sys2.WarmLoaded != k {
		t.Fatalf("warm-loaded %d instances, want %d", sys2.WarmLoaded, k)
	}
	c2, _ := startFaultDaemon(t, sys2)
	defineResumeWorkload(t, c2)
	resp2, err := c2.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/dresume"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ExitCode != wantExit {
		t.Fatalf("resumed exit = %d, want %d", resp2.ExitCode, wantExit)
	}
	st2 := sys2.Srv.Stats()
	if st2.NodesResumed != k {
		t.Fatalf("resumed daemon NodesResumed = %d, want %d", st2.NodesResumed, k)
	}
	if want := uint64(resumeLibCount + 1 - k); st2.NodesBuilt != want {
		t.Fatalf("resumed daemon NodesBuilt = %d, want %d", st2.NodesBuilt, want)
	}

	// The graph op renders the resumed run.
	gresp, err := c2.Call(&ipc.Request{Op: ipc.OpGraph})
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	for _, want := range []string{"/bin/dresume", "resumed", "build graph: runs=1 "} {
		if !strings.Contains(gresp.Text, want) {
			t.Fatalf("graph report missing %q:\n%s", want, gresp.Text)
		}
	}
	// And the stats text carries the graph counter line.
	sresp, err := c2.Call(&ipc.Request{Op: ipc.OpStats})
	if err != nil || !strings.Contains(sresp.Text, "graph: ") {
		t.Fatalf("stats missing graph line (err=%v):\n%s", err, sresp.Text)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}
