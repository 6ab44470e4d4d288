package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"omos"
	"omos/internal/fault"
	"omos/internal/ipc"
	"omos/internal/mesh"
)

// startFaultDaemon serves a system over the real protocol with the
// system's fault set armed on the transport too, and returns a client
// tuned to ride out transient failures.
func startFaultDaemon(t *testing.T, sys *omos.System) (*ipc.Client, *ipc.Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.NewServer(New(sys))
	srv.SetFaults(sys.Faults)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	c, err := ipc.DialWith(l.Addr().String(), ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    30 * time.Second,
		Retries:        3,
		Backoff:        5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// startMeshFaultDaemon is startFaultDaemon with the system federated
// into a (single-member) mesh whose fault set is the system's own, so
// the mesh.* sites are armed end to end: inbound mesh ops arrive over
// the real wire, outbound rounds run on the real node.
func startMeshFaultDaemon(t *testing.T, sys *omos.System) (*ipc.Client, *mesh.Node) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := New(sys)
	node, err := mesh.New(sys.Srv, mesh.Config{Self: l.Addr().String(), Faults: sys.Faults})
	if err != nil {
		t.Fatal(err)
	}
	b.Mesh = node
	t.Cleanup(node.Close)
	srv := ipc.NewServer(b)
	srv.SetFaults(sys.Faults)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	c, err := ipc.DialWith(l.Addr().String(), ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    30 * time.Second,
		Retries:        3,
		Backoff:        5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, node
}

// meshCycle reaches every mesh.* fault site while the armed budget
// fires: inbound fetches over the wire (the transport recovers injected
// panics), then gossip and rebalance rounds on the node (which recover
// their own).  Every error is an injected fault being absorbed — the
// matrix then re-verifies workload correctness.
func meshCycle(t *testing.T, c *ipc.Client, node *mesh.Node) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		c.MeshFetch(ctx, &ipc.MeshReq{From: "drill", CKey: fmt.Sprintf("drill-%d", i)})
	}
	for i := 0; i < 3; i++ {
		node.GossipTick()
		node.Rebalance()
	}
}

// callRetry issues a call with workload-level retries on top of the
// client's own: each fresh Call gets its own transparent reconnect,
// which is how a real client outlives a fault budget larger than one
// connection.
func callRetry(t *testing.T, c *ipc.Client, req *ipc.Request, attempts int) *ipc.Response {
	t.Helper()
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := c.Call(req)
		if err == nil {
			return resp
		}
		lastErr = err
	}
	t.Fatalf("%s failed after %d attempts: %v", req.Op, attempts, lastErr)
	return nil
}

// defineWorkload installs a tiny library + program over the wire,
// retrying (the transport sites may be armed).
func defineWorkload(t *testing.T, c *ipc.Client) {
	t.Helper()
	callRetry(t, c, &ipc.Request{Op: ipc.OpDefineLib, Path: "/lib/l",
		Text: `(source "c" "int triple(int x) { return 3 * x; }")`}, 4)
	callRetry(t, c, &ipc.Request{Op: ipc.OpDefine, Path: "/bin/t",
		Text: `(merge /lib/crt0.o (source "c" "extern int triple(int); int main() { return triple(14); }") /lib/l)`}, 4)
}

// upgradeV2Lib is a behaviour-identical v2 of the fault workload's
// library (the program still exits 42), so the matrix can flip it live
// without changing what correctness looks like.
const upgradeV2Lib = `(source "c" "int triple(int x) { return 3 * x; } int triple_aux(int x) { return x; }")`

// upgradeCycle drives a full live-upgrade lifecycle against the
// daemon: one epoch with cohort traffic rolled back, then one
// committed — enough to reach every upgrade.* fault site while the
// armed budget fires.  Every step tolerates injected failures: a
// canary fault trips the automatic rollback (that IS the feature), a
// faulted rollback or commit is retried until the budget drains.
func upgradeCycle(t *testing.T, c *ipc.Client) {
	t.Helper()
	openAndStage := func() {
		callRetry(t, c, &ipc.Request{Op: ipc.OpUpgrade, Unit: "start", Text: "100"}, 4)
		callRetry(t, c, &ipc.Request{Op: ipc.OpUpgrade, Unit: "stage",
			Path: "/lib/l", Text: upgradeV2Lib, Args: []string{"lib"}}, 4)
	}
	cohortTraffic := func() {
		// Run the program a few times; during an epoch these are canary
		// builds.  A failure here is an armed upgrade.canary fault — it
		// feeds the health gate, which auto-rolls-back, and that is a
		// legitimate outcome the rest of the cycle must absorb.
		for i := 0; i < 3; i++ {
			c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
		}
	}
	// Epoch 1: cohort traffic, then an operator rollback (retried past
	// injected rollback faults; "no active epoch" means the gate got
	// there first).
	openAndStage()
	cohortTraffic()
	for i := 0; i < 5; i++ {
		_, err := c.Call(&ipc.Request{Op: ipc.OpRollback, Text: "fault drill"})
		if err == nil || strings.Contains(err.Error(), "no active upgrade epoch") {
			break
		}
	}
	// Epoch 2: cohort traffic, then commit (retried past injected
	// commit faults; a typed abort means the gate rolled it back).
	openAndStage()
	cohortTraffic()
	for i := 0; i < 5; i++ {
		_, err := c.Call(&ipc.Request{Op: ipc.OpUpgrade, Unit: "commit"})
		if err == nil || errors.Is(err, ipc.ErrUpgradeAborted) ||
			strings.Contains(err.Error(), "no active upgrade epoch") {
			break
		}
	}
	// Whatever the epochs' fates, the engine must come to rest and the
	// workload must be correct.
	st := callRetry(t, c, &ipc.Request{Op: ipc.OpUpgradeStatus}, 4)
	if st.Flag {
		t.Fatalf("upgrade engine did not come to rest: %s", st.Text)
	}
}

// runUntilCorrect retries the (non-idempotent, so never auto-retried)
// run op until the injected fault budget is exhausted and the program
// completes with the right answer.
func runUntilCorrect(t *testing.T, c *ipc.Client, attempts int) {
	t.Helper()
	var lastErr error
	for i := 0; i < attempts; i++ {
		resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
		if err == nil {
			if resp.ExitCode != 42 {
				t.Fatalf("exit = %d, want 42 (a fault corrupted results, not just availability)", resp.ExitCode)
			}
			return
		}
		lastErr = err
	}
	t.Fatalf("no correct result in %d attempts: %v", attempts, lastErr)
}

// TestFaultMatrix drives a real client workload against a live daemon
// under every injection site and both error and panic kinds, twice
// per site: a cold session (build pipeline under fire) and a warm
// restart on the same store directory (reconstruction under fire).
// The daemon must survive every cell with correct results.
func TestFaultMatrix(t *testing.T) {
	for _, site := range fault.Sites() {
		for _, kind := range []string{"error", "panic"} {
			t.Run(site+"/"+kind, func(t *testing.T) {
				dir := t.TempDir()
				spec := fmt.Sprintf("%s:%s:n=1:count=2", site, kind)

				// Session 1: cold builds under injection.
				sys, err := omos.NewSystemWith(omos.Options{StoreDir: dir, FaultSpec: spec})
				if err != nil {
					t.Fatal(err)
				}
				var c *ipc.Client
				var node *mesh.Node
				if strings.HasPrefix(site, "mesh.") {
					c, node = startMeshFaultDaemon(t, sys)
				} else {
					c, _ = startFaultDaemon(t, sys)
				}
				defineWorkload(t, c)
				runUntilCorrect(t, c, 6)
				if strings.HasPrefix(site, "upgrade.") {
					// The upgrade sites fire only inside an epoch
					// lifecycle; drive one so the budget lands there.
					upgradeCycle(t, c)
					runUntilCorrect(t, c, 6)
				}
				if node != nil {
					// The mesh sites fire only on mesh traffic; drive
					// rounds of each op so the budget lands there.
					meshCycle(t, c, node)
					runUntilCorrect(t, c, 6)
				}
				hresp, err := c.Call(&ipc.Request{Op: ipc.OpHealth})
				if err != nil || hresp.Health == nil {
					t.Fatalf("daemon unhealthy after faults: %v", err)
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}

				// Session 2: warm restart on the same store with the
				// same faults re-armed (count resets: two more trips,
				// now aimed at the reconstruction path).
				sys2, err := omos.NewSystemWith(omos.Options{StoreDir: dir, FaultSpec: spec})
				if err != nil {
					t.Fatalf("warm boot under %s: %v", spec, err)
				}
				var c2 *ipc.Client
				var node2 *mesh.Node
				if strings.HasPrefix(site, "mesh.") {
					c2, node2 = startMeshFaultDaemon(t, sys2)
				} else {
					c2, _ = startFaultDaemon(t, sys2)
				}
				defineWorkload(t, c2)
				runUntilCorrect(t, c2, 6)
				if strings.HasPrefix(site, "upgrade.") {
					upgradeCycle(t, c2)
					runUntilCorrect(t, c2, 6)
				}
				if node2 != nil {
					meshCycle(t, c2, node2)
					runUntilCorrect(t, c2, 6)
				}
				if err := sys2.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFaultCorruptBlobQuarantineRebuild is the acceptance scenario:
// flip bytes in a persisted image blob on disk, warm-restart, and the
// daemon must quarantine the damaged blob (visible in -health) while
// the request succeeds via rebuild from source.
func TestFaultCorruptBlobQuarantineRebuild(t *testing.T) {
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

	// Flip a byte in the middle of every persisted blob.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".img") {
			continue
		}
		p := filepath.Join(dir, de.Name())
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no blobs persisted; nothing to corrupt")
	}

	// Warm restart: every blob is damaged where its head or its body
	// lies, so decoding fails at attach or at first use; either way the
	// blobs are quarantined, nothing is served from them — and the
	// workload still runs correctly via rebuild.
	sys2, err := omos.NewSystemWith(omos.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := startFaultDaemon(t, sys2)
	defineWorkload(t, c2)
	runUntilCorrect(t, c2, 1)
	if st := sys2.Srv.Stats(); st.ImagesBuilt != uint64(corrupted) {
		t.Fatalf("rebuilt %d of %d corrupted images", st.ImagesBuilt, corrupted)
	}

	hresp, err := c2.Call(&ipc.Request{Op: ipc.OpHealth})
	if err != nil || hresp.Health == nil {
		t.Fatalf("health: %v", err)
	}
	if hresp.Health.Quarantined == 0 {
		t.Fatalf("health reports no quarantined blobs after corruption; health = %+v", hresp.Health)
	}
	// The corrupt bytes survive for autopsy.
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qents) == 0 {
		t.Fatalf("quarantine directory empty (err=%v)", err)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultHealthEndToEnd: the health op over the wire reports uptime
// and warm-load state from a real backend.
func TestFaultHealthEndToEnd(t *testing.T) {
	sys, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startFaultDaemon(t, sys)
	resp, err := c.Call(&ipc.Request{Op: ipc.OpHealth})
	if err != nil || resp.Health == nil {
		t.Fatalf("health: %v", err)
	}
	h := resp.Health
	if h.Draining || h.InflightBuilds != 0 || h.Recovered != 0 {
		t.Fatalf("fresh daemon health = %+v", h)
	}
}
