package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omos/internal/fault"
	"omos/internal/refusal"
)

// TestAdmissionShedsBeyondBounds: with every slot held and the queue
// full, the gate sheds immediately with a retry-after hint; capacity
// freeing up admits again.
func TestAdmissionShedsBeyondBounds(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInflight: 2, QueueDepth: 1})
	ctx := context.Background()

	rel1, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Third caller queues.
	queuedDone := make(chan error, 1)
	go func() {
		rel, err := a.Acquire(ctx)
		if err == nil {
			rel()
		}
		queuedDone <- err
	}()
	waitCond(t, func() bool { return a.Queued() == 1 }, "third caller never queued")

	// Fourth caller: queue full → shed, typed, with a hint.
	_, err = a.Acquire(ctx)
	var oe *refusal.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *refusal.OverloadError", err)
	}
	if oe.RetryAfter < minRetryAfter || oe.RetryAfter > maxRetryAfter {
		t.Fatalf("RetryAfter = %v, out of [%v, %v]", oe.RetryAfter, minRetryAfter, maxRetryAfter)
	}
	if a.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", a.Shed())
	}

	// Releasing a slot admits the queued caller.
	rel1()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued caller: %v", err)
	}
	rel2()
	// Double release must be harmless (once-guarded).
	rel2()
	if got := a.Admitted(); got != 3 {
		t.Fatalf("Admitted = %d, want 3", got)
	}
}

// TestAdmissionQueuedCancel: a caller cancelled while queued leaves
// with ctx.Err() and vacates its queue seat.
func TestAdmissionQueuedCancel(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInflight: 1, QueueDepth: 4})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	waitCond(t, func() bool { return a.Queued() == 1 }, "caller never queued")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitCond(t, func() bool { return a.Queued() == 0 }, "cancelled caller left its queue seat")
	rel()
}

// TestAdmissionNilGate: a server without a gate admits everything.
func TestAdmissionNilGate(t *testing.T) {
	var a *Admission
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if a.Queued() != 0 || a.Shed() != 0 || a.QueueDepth() != 0 || a.Admitted() != 0 {
		t.Fatal("nil gate has state")
	}
}

// TestInstantiateSheds: the gate wired into InstantiateCtx sheds a
// request beyond the bounds while an instantiation wedges inside, and
// Stats.Shed reports it.
func TestInstantiateSheds(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	s.SetAdmission(NewAdmission(AdmissionConfig{MaxInflight: 1, QueueDepth: 1}))

	// Wedge the only slot: the build sleeps long enough for the other
	// callers to pile up.
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindDelay, EveryN: 1, Delay: 200 * time.Millisecond})
	s.SetFaults(f)

	var wg sync.WaitGroup
	var shed, ok atomic.Uint64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.InstantiateCtx(context.Background(), "/bin/prog", nil)
			var oe *refusal.OverloadError
			switch {
			case err == nil:
				ok.Add(1)
			case errors.As(err, &oe):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() < 2 || shed.Load() < 1 {
		t.Fatalf("ok=%d shed=%d; want >=2 admitted (slot+queue) and >=1 shed", ok.Load(), shed.Load())
	}
	if s.Stats().Shed != shed.Load() {
		t.Fatalf("Stats.Shed = %d, want %d", s.Stats().Shed, shed.Load())
	}
	// After the pile-up clears, the gate admits again.
	if _, err := s.Instantiate("/bin/prog", nil); err != nil {
		t.Fatalf("post-overload instantiate: %v", err)
	}
}

// TestWatchdogTimesOutWedgedBuild: an uninterruptible wedged build is
// abandoned at the deadline with a typed *BuildTimeoutError, counted
// in stats; the next attempt (fault exhausted) succeeds.
func TestWatchdogTimesOutWedgedBuild(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	s.SetBuildTimeout(30 * time.Millisecond)

	f := fault.New(1)
	// One wedged link: far longer than the watchdog bound.
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindDelay, EveryN: 1, Count: 1, Delay: 2 * time.Second})
	s.SetFaults(f)

	start := time.Now()
	_, err := s.Instantiate("/bin/prog", nil)
	var bt *BuildTimeoutError
	if !errors.As(err, &bt) {
		t.Fatalf("err = %v, want *BuildTimeoutError", err)
	}
	if bt.Timeout != 30*time.Millisecond || bt.Key == "" {
		t.Fatalf("timeout error fields: %+v", bt)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("watchdog did not cut the wedged build short (%v)", elapsed)
	}
	if got := s.Stats().BuildTimeouts; got < 1 {
		t.Fatalf("BuildTimeouts = %d, want >= 1", got)
	}
	// Retry succeeds (the delay rule is exhausted) even though the
	// abandoned goroutine may still be sleeping.
	inst, err := s.Instantiate("/bin/prog", nil)
	if err != nil {
		t.Fatalf("post-timeout instantiate: %v", err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestWatchdogFollowersReElect: followers waiting on a leader whose
// build the watchdog kills re-elect and finish the build themselves —
// the timeout is the leader's verdict, not the key's.
func TestWatchdogFollowersReElect(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	s.SetBuildTimeout(30 * time.Millisecond)

	f := fault.New(1)
	// Exactly one wedged eval; whoever draws it times out, everyone
	// else (and re-elected leaders) builds clean.
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindDelay, EveryN: 1, Count: 1, Delay: 2 * time.Second})
	s.SetFaults(f)

	const callers = 6
	var wg sync.WaitGroup
	var timedOut, ok atomic.Uint64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.InstantiateCtx(context.Background(), "/bin/prog", nil)
			var bt *BuildTimeoutError
			switch {
			case err == nil:
				ok.Add(1)
			case errors.As(err, &bt):
				timedOut.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	// Exactly the leader that drew the fault times out; every follower
	// re-elects and succeeds.
	if timedOut.Load() != 1 || ok.Load() != callers-1 {
		t.Fatalf("timedOut=%d ok=%d, want 1/%d", timedOut.Load(), ok.Load(), callers-1)
	}
	if got := s.InflightBuilds(); got != 0 {
		t.Fatalf("InflightBuilds = %d after convergence, want 0", got)
	}
}

// TestLeaderPanicsFollowersConverge (satellite): the singleflight
// leader is killed K times in a row by injected panics; retrying
// callers re-elect, converge, and the image is built exactly once.
func TestLeaderPanicsFollowersConverge(t *testing.T) {
	const (
		kills   = 3
		callers = 8
	)
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	// The first K leaders to reach the link die by panic.
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindPanic, EveryN: 1, Count: kills})
	s.SetFaults(f)

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic fails the whole flight (leader and followers
			// alike); every caller retries until the server converges.
			for {
				_, err := s.InstantiateCtx(context.Background(), "/bin/prog", nil)
				if err == nil {
					return
				}
				if !strings.Contains(err.Error(), "recovered panic") {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	// /bin/prog plus its one library: each built exactly once despite
	// K murdered leaders.
	if st.ImagesBuilt != 2 {
		t.Fatalf("ImagesBuilt = %d, want 2 (program + library)", st.ImagesBuilt)
	}
	if st.Recovered < kills {
		t.Fatalf("Recovered = %d, want >= %d", st.Recovered, kills)
	}
	if got := s.InflightBuilds(); got != 0 {
		t.Fatalf("InflightBuilds = %d after convergence, want 0", got)
	}
}

// TestSupervisorFlagsStuckBuild: the degraded verdict notices an
// in-flight build older than half the watchdog bound, names it in the
// reason, and clears once the watchdog has retired the flight.
func TestSupervisorFlagsStuckBuild(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindDelay, EveryN: 1, Count: 1, Delay: 300 * time.Millisecond})
	s.SetFaults(f)
	s.SetBuildTimeout(200 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Instantiate("/bin/prog", nil)
	}()
	var reason string
	waitCond(t, func() bool {
		var d bool
		d, reason = s.Degraded()
		return d
	}, "never degraded on the stuck build")
	if !strings.Contains(reason, "in flight") {
		t.Fatalf("reason = %q, want a stuck-build reason", reason)
	}
	<-done
	waitCond(t, func() bool { d, _ := s.Degraded(); return !d }, "degraded verdict never cleared")
}

// waitCond polls cond for up to 5s.
func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}
