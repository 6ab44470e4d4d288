package daemon

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"omos"
	"omos/internal/ipc"
)

// startBatchDaemon serves a fresh system over the wire and returns a
// client plus the system, so tests can inspect server-side stats after
// driving the protocol.
func startBatchDaemon(t *testing.T, opts ipc.Options) (*ipc.Client, *omos.System) {
	t.Helper()
	return startBatchDaemonWith(t, opts, omos.Options{})
}

func startBatchDaemonWith(t *testing.T, opts ipc.Options, sysOpts omos.Options) (*ipc.Client, *omos.System) {
	t.Helper()
	sys, err := omos.NewSystemWith(sysOpts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.NewServer(New(sys))
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	c, err := ipc.DialWith(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, sys
}

func defineBatchWorkload(t *testing.T, c *ipc.Client) {
	t.Helper()
	if _, err := c.Call(&ipc.Request{Op: ipc.OpDefineLib, Path: "/lib/l",
		Text: `(source "c" "int triple(int x) { return 3 * x; }")`}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&ipc.Request{Op: ipc.OpDefine, Path: "/bin/t",
		Text: `(merge /lib/crt0.o (source "c" "extern int triple(int); int main() { return triple(14); }") /lib/l)`}); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonBatchInstantiate drives OpInstantiateBatch end to end: per-item results come back positionally, a bogus
// name fails only its own item, and a subsequent run hits the warmed
// image cache.
func TestDaemonBatchInstantiate(t *testing.T) {
	c, sys := startBatchDaemon(t, ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    30 * time.Second,
	})
	defineBatchWorkload(t, c)

	res, err := c.InstantiateBatch([]string{"/bin/t", "/lib/l", "/bogus/none"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results for 3 items", len(res))
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", res[0].Err, res[1].Err)
	}
	if res[2].Err == nil {
		t.Fatal("bogus item did not fail")
	}
	if res[2].Path != "/bogus/none" {
		t.Fatalf("result 2 path = %q, want the bogus item", res[2].Path)
	}

	built := sys.Srv.Stats().ImagesBuilt
	resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42", resp.ExitCode)
	}
	if after := sys.Srv.Stats().ImagesBuilt; after != built {
		t.Fatalf("run after batch rebuilt images: %d -> %d (cache not warmed)", built, after)
	}
}

// TestDaemonBatchConcurrentWithCalls interleaves a batch with pipelined
// single calls on the same connection: the batch's streamed completions
// and the singles' tagged responses share one wire without cross-talk.
func TestDaemonBatchConcurrentWithCalls(t *testing.T) {
	c, _ := startBatchDaemon(t, ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    30 * time.Second,
	})
	defineBatchWorkload(t, c)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := c.InstantiateBatch([]string{"/bin/t", "/lib/l"})
		if err != nil {
			errs <- err
			return
		}
		for _, r := range res {
			if r.Err != nil {
				errs <- r.Err
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Call(&ipc.Request{Op: ipc.OpDisasm, Path: "/lib/crt0.o"})
			if err != nil {
				errs <- err
				return
			}
			if resp.Text == "" {
				errs <- errors.New("empty disasm response")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFaultRootEvalPanicBatchDaemon: a panic in one batch item's root
// evaluation, which runs on an executor goroutine inside the daemon,
// fails that item alone; the other item succeeds and the daemon keeps
// answering.
func TestFaultRootEvalPanicBatchDaemon(t *testing.T) {
	c, sys := startBatchDaemonWith(t, ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    30 * time.Second,
	}, omos.Options{FaultSpec: "build.eval:panic:n=1:count=1"})
	defineBatchWorkload(t, c)

	res, err := c.InstantiateBatch([]string{"/bin/t", "/bin/t"})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, r := range res {
		if r.Err != nil {
			if !strings.Contains(r.Err.Error(), "recovered panic") {
				t.Fatalf("item %d: err = %v, want recovered panic", i, r.Err)
			}
			failed++
		}
	}
	if len(res) != 2 || failed != 1 {
		t.Fatalf("results %+v; want one of two items failed", res)
	}
	if sys.Srv.Stats().Recovered == 0 {
		t.Fatal("Stats.Recovered = 0 after a contained panic")
	}
	if _, err := c.Call(&ipc.Request{Op: ipc.OpPing}); err != nil {
		t.Fatalf("daemon stopped answering after the panic: %v", err)
	}
}
