package buildgraph

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunLifecycleAndCounters(t *testing.T) {
	l := NewLog()
	root := l.Begin("/bin/app", KindProgram)
	lib := root.Child("/lib/libc", KindLibrary)

	lib.SetKeys("k1", "ck1")
	lib.Produced(OutcomeBuilt)
	lib.AddCost(100)
	lib.Checkpointed(4096, nil)
	if o := lib.Finish(nil); o != OutcomeBuilt {
		t.Fatalf("lib outcome = %s, want built", o)
	}
	if out := l.Render(); !strings.Contains(out, "runs=1 active=1") || !strings.Contains(out, " active\n") {
		t.Fatalf("run not active before its root finished:\n%s", out)
	}

	root.SetKeys("k0", "ck0")
	if o := root.Finish(nil); o != OutcomeCached {
		t.Fatalf("root outcome = %s, want cached (no stage produced it)", o)
	}
	if lib.Parent != root.ID {
		t.Fatalf("lib parent = %d, want %d", lib.Parent, root.ID)
	}
	out := l.Render()
	for _, want := range []string{"runs=1 active=0\n", "/bin/app", "/lib/libc", "built", "cached",
		"ckpt=4096B", "dur=", "recent runs:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestCheckpointFailureCounts(t *testing.T) {
	l := NewLog()
	n := l.Begin("x", KindLibrary)
	n.Checkpointed(0, errors.New("injected"))
	n.Produced(OutcomeBuilt)
	if o := n.Finish(nil); o != OutcomeBuilt {
		t.Fatalf("outcome = %s, want built: a failed checkpoint never fails the node", o)
	}
	out := l.Render()
	if !strings.Contains(out, `ckpt-err="injected"`) || strings.Contains(out, "ckpt=") {
		t.Fatalf("Render does not show the checkpoint failure:\n%s", out)
	}
}

func TestNilNodeSafe(t *testing.T) {
	var n *Node
	n.SetKeys("a", "b")
	n.Produced(OutcomeBuilt)
	n.AddCost(1)
	n.Checkpointed(10, nil)
	if o := n.Finish(nil); o != OutcomePending {
		t.Fatalf("nil node finished %s", o)
	}
	if n.Child("x", KindLibrary) != nil {
		t.Fatal("nil parent produced a child")
	}
}

// TestOutcomeSetByProducer: failure overrides the producing stage, and
// a stage finishing after its node changes nothing.
func TestOutcomeSetByProducer(t *testing.T) {
	l := NewLog()
	root := l.Begin("r", KindProgram)
	failed := root.Child("f", KindLibrary)
	failed.Produced(OutcomeRebased)
	if o := failed.Finish(errors.New("boom")); o != OutcomeFailed {
		t.Fatalf("outcome = %s, want failed", o)
	}
	late := root.Child("late", KindLibrary)
	if o := late.Finish(nil); o != OutcomeCached {
		t.Fatalf("outcome = %s, want cached", o)
	}
	late.Produced(OutcomeBuilt)
	if late.Outcome != OutcomeCached {
		t.Fatalf("late stage moved a finished node to %s", late.Outcome)
	}
	root.Produced(OutcomeResumed)
	root.Finish(nil)
	if out := l.Render(); !strings.Contains(out, "active=0") ||
		!strings.Contains(out, `err="boom"`) || !strings.Contains(out, "resumed") {
		t.Fatalf("Render:\n%s", out)
	}
}

func TestRecentRunsBounded(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3*maxRecentRuns; i++ {
		l.Begin("r", KindProgram).Finish(nil)
	}
	l.mu.Lock()
	n, active := len(l.recent), len(l.active)
	l.mu.Unlock()
	if n != maxRecentRuns || active != 0 {
		t.Fatalf("recent runs = %d, active = %d; want %d and 0", n, active, maxRecentRuns)
	}
}

func TestExecutorRunsAllTasks(t *testing.T) {
	e := NewExecutor(4)
	const n = 100
	var ran atomic.Int64
	tasks := make([]func(), n)
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	e.Run(tasks)
	if ran.Load() != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
}

func TestExecutorSerialWhenOneWorker(t *testing.T) {
	e := NewExecutor(1)
	var order []int
	tasks := make([]func(), 10)
	for i := range tasks {
		i := i
		tasks[i] = func() { order = append(order, i) } // no lock: must be serial
	}
	e.Run(tasks)
	for i, got := range order {
		if got != i {
			t.Fatalf("serial executor ran out of order: %v", order)
		}
	}
}

// TestExecutorNestedNoDeadlock drives nested fan-outs deeper than the
// pool: inline fallback must keep everything progressing.
func TestExecutorNestedNoDeadlock(t *testing.T) {
	e := NewExecutor(2)
	var ran atomic.Int64
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		return func() {
			ran.Add(1)
			if depth == 0 {
				return
			}
			sub := make([]func(), 3)
			for i := range sub {
				sub[i] = spawn(depth - 1)
			}
			e.Run(sub)
		}
	}
	e.Run([]func(){spawn(4), spawn(4), spawn(4), spawn(4)})
	want := int64(4 * (1 + 3 + 9 + 27 + 81))
	if ran.Load() != want {
		t.Fatalf("ran %d, want %d", ran.Load(), want)
	}
}

func TestExecutorBoundsSpawnedGoroutines(t *testing.T) {
	const workers = 3
	e := NewExecutor(workers)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	block := make(chan struct{})
	tasks := make([]func(), 32)
	for i := range tasks {
		tasks[i] = func() {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			<-block
			cur.Add(-1)
		}
	}
	done := make(chan struct{})
	go func() { e.Run(tasks); close(done) }()
	// Every task eventually blocks on block; at most workers+1 can be
	// live at once (workers spawned + the submitter running inline).
	for i := 0; i < len(tasks); i++ {
		block <- struct{}{}
	}
	<-done
	if p := peak.Load(); p > workers+1 {
		t.Fatalf("peak concurrency %d > %d", p, workers+1)
	}
}

func TestContextPlumbing(t *testing.T) {
	if NodeFrom(context.Background()) != nil {
		t.Fatal("empty context carries a node")
	}
	n := NewLog().Begin("x", KindProgram)
	ctx := WithNode(context.Background(), n)
	if NodeFrom(ctx) != n {
		t.Fatal("node not recovered from context")
	}
}

func TestConcurrentNodeRecording(t *testing.T) {
	l := NewLog()
	root := l.Begin("root", KindProgram)
	var wg sync.WaitGroup
	var built atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := root.Child("lib", KindLibrary)
			n.SetKeys("k", "ck")
			n.AddCost(7)
			n.Checkpointed(3, nil)
			n.Produced(OutcomeBuilt)
			if n.Finish(nil) == OutcomeBuilt {
				built.Add(1)
			}
			_ = l.Render()
		}()
	}
	wg.Wait()
	root.Finish(nil)
	if built.Load() != 16 {
		t.Fatalf("built = %d, want 16", built.Load())
	}
	r := root.run
	if len(r.Nodes) != 17 {
		t.Fatalf("nodes = %d, want 17", len(r.Nodes))
	}
	ids := map[int]bool{}
	for _, n := range r.Nodes {
		if ids[n.ID] {
			t.Fatalf("duplicate node ID %d", n.ID)
		}
		ids[n.ID] = true
	}
}

// TestExecutorPanicReraised: a helper's panic reaches the caller of
// Run, after every helper has exited and no task claimed after the
// panic has started.
func TestExecutorPanicReraised(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := NewExecutor(4)
	var live atomic.Int64
	release := make(chan struct{})
	caller := make(chan struct{})
	tasks := make([]func(), 64)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			live.Add(1)
			defer live.Add(-1)
			switch i {
			case 0:
				close(caller) // the caller holds task 0 until a helper has panicked
				<-release
			case 1:
				<-caller
				defer close(release)
				panic("task 1 failed")
			}
		}
	}
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(tasks)
	}()
	if got != "task 1 failed" {
		t.Fatalf("Run re-raised %v, want the helper's panic", got)
	}
	if n := live.Load(); n != 0 {
		t.Fatalf("%d tasks still running after Run returned", n)
	}
	if n := e.busy.Load(); n != 0 {
		t.Fatalf("busy count %d after Run returned: a helper outlived it", n)
	}
}

// gauge records the most tasks running at once.
type gauge struct {
	mu        sync.Mutex
	cur, peak int64
}

// task occupies the gauge for d.
func (g *gauge) task(d time.Duration) {
	g.mu.Lock()
	g.cur++
	g.peak = max(g.peak, g.cur)
	g.mu.Unlock()
	time.Sleep(d)
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

// peakConcurrency runs n sleeping tasks and reports the most that were
// running at once.
func peakConcurrency(e *Executor, n int) int64 {
	var g gauge
	tasks := make([]func(), n)
	for i := range tasks {
		// Long enough for every idle processor's helper to start and
		// claim a task of its own.
		tasks[i] = func() { g.task(5 * time.Millisecond) }
	}
	e.Run(tasks)
	return g.peak
}

// TestExecutorGate pins the processor gate at GOMAXPROCS(2): with two
// roots entered Run spawns no helper, with one it spawns one.
func TestExecutorGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := NewExecutor(4)

	e.Enter()
	e.Enter()
	if p := peakConcurrency(e, 8); p != 1 {
		t.Fatalf("two roots entered: peak concurrency %d, want 1 (no helper)", p)
	}
	e.Leave()
	if p := peakConcurrency(e, 8); p > 2 {
		t.Fatalf("one root entered: peak concurrency %d, want at most 2", p)
	}
	e.Leave()
	if n := e.busy.Load(); n != 0 {
		t.Fatalf("busy count %d after every root left", n)
	}
}

// TestExecutorHelperYields: a helper that took an idle processor gives
// it back after its task once a root enters and wants it, so the rest
// of the Run is the caller's alone.
func TestExecutorHelperYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := NewExecutor(4)
	e.Enter()
	entered := make(chan struct{})
	var g gauge
	tasks := make([]func(), 8)
	tasks[0] = func() { <-entered } // the caller's first claim
	tasks[1] = func() {             // the helper's first claim
		e.Enter() // a second root arrives while the helper runs
		close(entered)
	}
	for i := 2; i < len(tasks); i++ {
		tasks[i] = func() { g.task(time.Millisecond) }
	}
	e.Run(tasks)
	if p := g.peak; p != 1 {
		t.Fatalf("peak concurrency %d after the second root entered, want 1", p)
	}
	if n := e.busy.Load(); n != 2 {
		t.Fatalf("busy count %d after Run, want the two roots", n)
	}
}
