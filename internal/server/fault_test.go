package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"omos/internal/fault"
	"omos/internal/mgraph"
)

// defineProg installs a tiny program (with one library dep) used by
// the fault tests.
func defineFaultProg(t *testing.T, s *Server) {
	t.Helper()
	if err := s.DefineLibrary("/lib/tiny", `
(source "c" "int lib_val() { return 40; }")
`); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("/bin/prog", `
(merge /lib/crt0.o
  (source "c" "extern int lib_val(); int main() { return lib_val() + 2; }")
  /lib/tiny)
`); err != nil {
		t.Fatal(err)
	}
}

// TestFaultBuildLinkError: an injected error at build.link fails only
// the faulted request; the next instantiation succeeds and the image
// is correct.
func TestFaultBuildLinkError(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindError, EveryN: 1, Count: 1})
	s.SetFaults(f)

	if _, err := s.Instantiate("/bin/prog", nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	inst, err := s.Instantiate("/bin/prog", nil)
	if err != nil {
		t.Fatalf("post-fault instantiate: %v", err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestFaultBuildPanicRecovered: a panic injected under the build is
// recovered into an error on that request (never a dead server) and
// counted in Stats.Recovered.
func TestFaultBuildPanicRecovered(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildLink, Kind: fault.KindPanic, EveryN: 1, Count: 1})
	s.SetFaults(f)

	_, err := s.Instantiate("/bin/prog", nil)
	if err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if got := s.Stats().Recovered; got == 0 {
		t.Fatalf("Stats.Recovered = %d, want > 0", got)
	}
	inst, err := s.Instantiate("/bin/prog", nil)
	if err != nil {
		t.Fatalf("post-panic instantiate: %v", err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestFaultEvalPanicRecovered: a panic in the evaluation stage of a
// library branch (before any singleflight exists) is recovered by the
// fan-out worker, failing the request cleanly.
func TestFaultEvalPanicRecovered(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	// Hit 2 only: the program's own evaluation survives; the library
	// branch (running under its own node's recovery) panics.
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindPanic, EveryN: 2, Count: 1})
	s.SetFaults(f)

	_, err := s.Instantiate("/bin/prog", nil)
	if err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if got := s.Stats().Recovered; got == 0 {
		t.Fatalf("Stats.Recovered = %d, want > 0", got)
	}
	if inst, err := s.Instantiate("/bin/prog", nil); err != nil {
		t.Fatalf("post-panic instantiate: %v", err)
	} else if _, code := runInstance(t, s, inst, nil); code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestFaultInstantiateCtxCanceled: a request arriving with a dead
// context never starts building.
func TestFaultInstantiateCtxCanceled(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.InstantiateCtx(ctx, "/bin/prog", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Stats().ImagesBuilt; got != 0 {
		t.Fatalf("ImagesBuilt = %d, want 0", got)
	}
}

// TestFaultWaiterDetach: a singleflight waiter whose context is
// canceled detaches immediately while the leader keeps building; the
// leader's result still lands in the flight for any live follower.
func TestFaultWaiterDetach(t *testing.T) {
	s := newTestServer(t)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	want := &Instance{Key: "k"}

	go func() {
		defer close(leaderDone)
		inst, err := s.buildShared(context.Background(), "k", func() (*Instance, error) {
			close(started)
			<-release
			return want, nil
		})
		if err != nil || inst != want {
			t.Errorf("leader: inst=%v err=%v", inst, err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := s.buildShared(ctx, "k", func() (*Instance, error) {
			t.Error("waiter must not build")
			return nil, nil
		})
		waiterErr <- err
	}()
	// Let the waiter queue on the flight, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not detach")
	}
	close(release)
	<-leaderDone
	// Clean up the synthetic cache entry before the server is torn down.
	s.cacheMu.Lock()
	delete(s.entries, "k")
	s.cacheMu.Unlock()
}

// TestFaultDeadLeaderDoesNotWedge: a leader that dies of its own
// context cancellation hands followers an error that is not theirs; a
// live follower retries the key and builds successfully instead of
// inheriting the leader's cancellation.
func TestFaultDeadLeaderDoesNotWedge(t *testing.T) {
	s := newTestServer(t)
	hold := make(chan struct{})
	var followerWaiting sync.WaitGroup
	want := &Instance{Key: "k2"}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.buildShared(context.Background(), "k2", func() (*Instance, error) {
			<-hold
			return nil, context.Canceled // leader canceled mid-build
		})
		leaderErr <- err
	}()
	// Wait until the flight is registered so the follower joins it.
	for {
		s.cacheMu.RLock()
		_, inflight := s.inflight["k2"]
		s.cacheMu.RUnlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}

	followerWaiting.Add(1)
	followerRes := make(chan *Instance, 1)
	go func() {
		followerWaiting.Done()
		inst, err := s.buildShared(context.Background(), "k2", func() (*Instance, error) {
			return want, nil
		})
		if err != nil {
			t.Errorf("follower err = %v", err)
		}
		followerRes <- inst
	}()
	followerWaiting.Wait()
	time.Sleep(10 * time.Millisecond) // follower parks on the flight
	close(hold)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case inst := <-followerRes:
		if inst != want {
			t.Fatalf("follower inst = %v, want retry result", inst)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower wedged on dead leader")
	}
	s.cacheMu.Lock()
	delete(s.entries, "k2")
	s.cacheMu.Unlock()
}

// TestFaultFrameMake: an injected failure materializing shared frames
// (site osim.frame) fails the request with a typed error; retry
// succeeds.
func TestFaultFrameMake(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteFrameMake, Kind: fault.KindError, EveryN: 1, Count: 1})
	s.Kernel().FT.Faults = f

	if _, err := s.Instantiate("/bin/prog", nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	inst, err := s.Instantiate("/bin/prog", nil)
	if err != nil {
		t.Fatalf("post-fault instantiate: %v", err)
	}
	_, code := runInstance(t, s, inst, nil)
	if code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestFaultDelayWithDeadline: an injected delay at build.link pushes
// the build past the request deadline; the caller sees the deadline,
// and a later unfaulted request still succeeds.
func TestFaultDelayWithDeadline(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)

	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindDelay, EveryN: 1, Count: 1,
		Delay: 50 * time.Millisecond})
	s.SetFaults(f)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.InstantiateCtx(ctx, "/bin/prog", nil)
	// The delay is injected before the ctx re-checks, so the request
	// either reports the deadline or an error; it must not hang.
	if err == nil {
		t.Fatal("expected an error under deadline + injected delay")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("request hung under injected delay")
	}
	if inst, err := s.Instantiate("/bin/prog", nil); err != nil {
		t.Fatalf("post-delay instantiate: %v", err)
	} else if _, code := runInstance(t, s, inst, nil); code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestFaultRootEvalPanicRecovered: a panic in the root's own
// evaluation (hit 1, which TestFaultEvalPanicRecovered skips) is
// recovered by the root's node like any dependency's: the request
// fails with the panic, the run is retired, and a retry builds.
func TestFaultRootEvalPanicRecovered(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindPanic, EveryN: 1, Count: 1})
	s.SetFaults(f)

	_, err := s.Instantiate("/bin/prog", nil)
	if err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if got := s.Stats().Recovered; got == 0 {
		t.Fatalf("Stats.Recovered = %d, want > 0", got)
	}
	if st := s.Stats(); st.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want the root alone", st.NodesFailed)
	}
	if report := s.GraphReport(); !strings.Contains(report, "build graph: runs=1 active=0\n") {
		t.Fatalf("panicked run still active:\n%s", report)
	}
	if inst, err := s.Instantiate("/bin/prog", nil); err != nil {
		t.Fatalf("post-panic instantiate: %v", err)
	} else if _, code := runInstance(t, s, inst, nil); code != 42 {
		t.Fatalf("exit = %d, want 42", code)
	}
}

// TestFaultInstantiateLibPanicRecovered: InstantiateLib (the loader's
// DYNLOAD and partial-image paths) is a root like any request: a panic
// in its library's evaluation fails the call, is counted, and retires
// its run, and a retry builds.
func TestFaultInstantiateLibPanicRecovered(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindPanic, EveryN: 1, Count: 1})
	s.SetFaults(f)

	dep := mgraph.LibDep{Path: "/lib/tiny"}
	_, err := s.InstantiateLib(dep, nil)
	if err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if got := s.Stats().Recovered; got == 0 {
		t.Fatalf("Stats.Recovered = %d, want > 0", got)
	}
	if st := s.Stats(); st.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want the root alone", st.NodesFailed)
	}
	if report := s.GraphReport(); !strings.Contains(report, "build graph: runs=1 active=0\n") {
		t.Fatalf("panicked run not recorded and retired:\n%s", report)
	}
	if _, err := s.InstantiateLib(dep, nil); err != nil {
		t.Fatalf("post-panic InstantiateLib: %v", err)
	}
	if st := s.Stats(); st.ImagesBuilt != 1 {
		t.Fatalf("ImagesBuilt = %d after the retry, want 1", st.ImagesBuilt)
	}
}

// TestFaultRootEvalPanicBatch: the same panic inside a two-item batch,
// whose items run on the executor's goroutines, fails one item and
// leaves the other — and the process — alone.
func TestFaultRootEvalPanicBatch(t *testing.T) {
	s := newTestServer(t)
	defineFaultProg(t, s)
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteBuildEval, Kind: fault.KindPanic, EveryN: 1, Count: 1})
	s.SetFaults(f)

	var mu sync.Mutex
	errs := map[int]error{}
	s.InstantiateBatch(context.Background(), []string{"/bin/prog", "/bin/prog"}, nil, func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		errs[i] = err
	})
	failed := 0
	for i := 0; i < 2; i++ {
		if err := errs[i]; err != nil {
			if !strings.Contains(err.Error(), "recovered panic") {
				t.Fatalf("item %d: err = %v, want recovered panic", i, err)
			}
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("errors %v; want exactly one item failed", errs)
	}
	if report := s.GraphReport(); !strings.Contains(report, "build graph: runs=2 active=0\n") {
		t.Fatalf("batch runs not retired:\n%s", report)
	}
}
