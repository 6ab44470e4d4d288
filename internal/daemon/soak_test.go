package daemon

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omos"
	"omos/internal/fault"
	"omos/internal/ipc"
	"omos/internal/refusal"
)

// TestChaosSoak is the robustness acceptance drill: eight churning
// clients hammer a live daemon whose admission gate is deliberately
// tiny (2 in flight + 2 queued), whose build pipeline is slowed and
// occasionally broken by randomized-but-seeded faults, and whose
// background scrubber runs hot.  The invariants:
//
//   - Every request terminates in a known outcome — success with the
//     right answer, a typed overload shed, a clean draining refusal,
//     or an injected fault.  Never a hang, never a dead daemon.
//   - Shed-then-retry converges: a client that honors the server's
//     retry-after hint always gets through eventually.
//   - The scrubber, churning over healthy blobs the whole time, never
//     quarantines a single one.
//   - Graceful shutdown completes with clients still around.
//
// Run under -race in CI; the seed is fixed so failures reproduce.
func TestChaosSoak(t *testing.T) {
	const (
		clients    = 8
		perClient  = 12
		maxRetries = 60
	)
	dir := t.TempDir()
	sys, err := omos.NewSystemWith(omos.Options{
		StoreDir:      dir,
		MaxInflight:   2,
		QueueDepth:    2,
		BuildTimeout:  5 * time.Second,
		ScrubInterval: time.Millisecond,
		ScrubPerTick:  8,
		// Every eval pays 1ms (saturates the tiny gate under 8
		// clients); 5% of links die of an injected error.
		FaultSpec: "build.eval:delay:n=1:delay=1ms;build.link:error:p=0.05",
		FaultSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ipc.NewServer(New(sys))
	go srv.Serve(l)

	// Install the workload with a clean client before the storm.
	setup, err := ipc.DialWith(l.Addr().String(), ipc.Options{ConnectTimeout: 2 * time.Second, CallTimeout: 30 * time.Second, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defineWorkload(t, setup)
	setup.Close()

	var ok, shed, injected atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := ipc.DialWith(l.Addr().String(), ipc.Options{
				ConnectTimeout: 2 * time.Second,
				CallTimeout:    30 * time.Second,
				Retries:        1,
				Backoff:        time.Millisecond,
			})
			if err != nil {
				t.Errorf("client %d: dial: %v", ci, err)
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				if err := soakRequest(c, &ok, &shed, &injected, maxRetries); err != nil {
					t.Errorf("client %d request %d: %v", ci, i, err)
					return
				}
			}
		}(ci)
	}
	// The soak must not wedge: everything converges well within the
	// deadline or the test fails loudly instead of hanging.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak deadlocked: clients still running after 2m")
	}

	if ok.Load() != clients*perClient {
		t.Fatalf("ok=%d, want %d (every request must converge to success)", ok.Load(), clients*perClient)
	}
	t.Logf("soak: ok=%d shed=%d injected=%d", ok.Load(), shed.Load(), injected.Load())

	// Health after the storm: a fresh client still gets an answer and
	// the daemon is not draining.
	hc, err := ipc.DialWith(l.Addr().String(), ipc.Options{ConnectTimeout: 2 * time.Second, CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := hc.Call(&ipc.Request{Op: ipc.OpHealth})
	if err != nil || hresp.Health == nil {
		t.Fatalf("health after soak: %v", err)
	}
	if hresp.Health.Draining {
		t.Fatal("daemon draining after soak (no shutdown was requested)")
	}
	hc.Close()

	// Counters after the storm: the gate did its job, the scrubber ran
	// and never quarantined a healthy blob.
	st := sys.Srv.Stats()
	if shed.Load() > 0 && st.Shed == 0 {
		t.Fatalf("clients saw %d sheds but stats report none", shed.Load())
	}
	if st.ScrubChecked == 0 {
		t.Fatal("scrubber never ran during the soak")
	}
	if st.ScrubQuarantined != 0 {
		t.Fatalf("scrubber quarantined %d healthy blobs", st.ScrubQuarantined)
	}

	// Graceful shutdown with the listener hot: must return, and the
	// store must close clean.
	shutDone := make(chan struct{})
	go func() { srv.Shutdown(); close(shutDone) }()
	select {
	case <-shutDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung")
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("closing store after soak: %v", err)
	}
}

// soakRequest runs /bin/t once with shed-then-retry: overload answers
// are retried after the server's hint; injected build faults are
// retried as a client naturally would; anything else is a soak
// failure.  Counts every intermediate outcome.
func soakRequest(c *ipc.Client, ok, shed, injected *atomic.Uint64, maxRetries int) error {
	var lastErr error
	for attempt := 0; attempt < maxRetries; attempt++ {
		resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
		var oe *refusal.OverloadError
		switch {
		case err == nil:
			if resp.ExitCode != 42 {
				return fmt.Errorf("exit = %d, want 42 (corruption, not just unavailability)", resp.ExitCode)
			}
			ok.Add(1)
			return nil
		case errors.As(err, &oe):
			// Shed-then-retry: honor the hint and go again.
			shed.Add(1)
			time.Sleep(oe.RetryAfter)
		case errors.Is(err, ipc.ErrDraining):
			return fmt.Errorf("draining mid-soak (no shutdown was requested): %w", err)
		case isInjected(err):
			injected.Add(1)
		default:
			return fmt.Errorf("unclassified outcome: %w", err)
		}
		lastErr = err
	}
	return fmt.Errorf("no convergence in %d attempts: %w", maxRetries, lastErr)
}

// isInjected classifies an app-level error string as an injected
// build fault (the typed value does not cross the wire; its message
// does).
func isInjected(err error) bool {
	return err != nil && strings.Contains(err.Error(), fault.ErrInjected.Error())
}
