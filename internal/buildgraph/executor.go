package buildgraph

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor is the build graph's worker pool.  The scheduling rule
// (inherited from the server's original fan-out) is that a processor
// is required to SPAWN a helper goroutine, never to RUN a task: the
// caller of Run always claims tasks itself, so nested fan-outs (a
// library node building its own dependency nodes, an operand
// evaluating its own operands) always make progress and the pool
// cannot deadlock.
//
// The processor gate is the executor's busy count: root requests
// (Enter) plus live helpers.  A helper is spawned only while that
// count is below runtime.GOMAXPROCS, and leaves between tasks while it
// is above, so one request spreads onto the processors no other
// request holds and gives back any that a request entering later
// needs.
type Executor struct {
	workers int
	busy    atomic.Int64
}

// NewExecutor returns a pool letting one Run use up to workers
// goroutines (the caller plus workers-1 helpers; minimum 1).
func NewExecutor(workers int) *Executor {
	e := &Executor{}
	e.SetWorkers(workers)
	return e
}

// SetWorkers sets the width of one Run; n <= 1 makes Run fully
// serial.  Not safe to call while tasks are in flight.
func (e *Executor) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers returns the width of one Run.
func (e *Executor) Workers() int { return e.workers }

// Enter counts a root request as holding one processor until the
// matching Leave.
func (e *Executor) Enter() { e.busy.Add(1) }

// Leave releases the processor Enter counted.
func (e *Executor) Leave() { e.busy.Add(-1) }

// hold takes a processor for a helper if one of limit is idle.
func (e *Executor) hold(limit int64) bool {
	for {
		b := e.busy.Load()
		if b >= limit {
			return false
		}
		if e.busy.CompareAndSwap(b, b+1) {
			return true
		}
	}
}

// yield gives a helper's processor back if more than limit are held:
// a root entered after the helper took an idle one.
func (e *Executor) yield(limit int64) bool {
	for {
		b := e.busy.Load()
		if b <= limit {
			return false
		}
		if e.busy.CompareAndSwap(b, b-1) {
			return true
		}
	}
}

// Run executes every task and returns when all have completed.  The
// caller and up to min(Workers(), len(tasks))-1 helpers claim task
// indices from one counter until none are left.  A helper is spawned
// only while a processor is idle, and gives it back between tasks once
// a root has entered and wants it.  Completion order is not specified,
// so callers join results by index.  A panic in any task stops further
// claims; Run waits for every helper, then re-raises the first panic
// on the caller.
func (e *Executor) Run(tasks []func()) {
	n := len(tasks)
	if e.workers <= 1 || n <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var (
		limit    = int64(runtime.GOMAXPROCS(0))
		next     atomic.Int64
		live     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		first    any
		panicked bool
	)
	claim := func() (int, bool) {
		if stop.Load() {
			return 0, false
		}
		i := int(next.Add(1) - 1)
		return i, i < n
	}
	// contain, deferred by every claimer, records the first panic and
	// stops every claimer.
	contain := func() {
		if r := recover(); r != nil {
			stop.Store(true)
			mu.Lock()
			if !panicked {
				first, panicked = r, true
			}
			mu.Unlock()
		}
	}
	helper := func() {
		yielded := false
		defer wg.Done()
		defer live.Add(-1)
		defer func() {
			if !yielded {
				e.busy.Add(-1)
			}
		}()
		defer contain()
		for i, ok := claim(); ok; i, ok = claim() {
			tasks[i]()
			if yielded = e.yield(limit); yielded {
				return
			}
		}
	}
	// The caller spawns helpers between its own claims, so a processor
	// another request frees mid-Run is picked up while work remains.
	helpers := int64(min(e.workers, n) - 1)
	func() {
		defer contain()
		for i, ok := claim(); ok; i, ok = claim() {
			for live.Load() < helpers && int(next.Load()) < n && e.hold(limit) {
				live.Add(1)
				wg.Add(1)
				go helper()
			}
			tasks[i]()
		}
	}()
	wg.Wait()
	if panicked {
		panic(first)
	}
}

// nodeKey is the context key carrying the current node (and through
// it the run).
type nodeKey struct{}

// WithNode returns a context carrying node as the current graph
// position; child nodes created by deeper pipeline stages attach
// under it.
func WithNode(ctx context.Context, node *Node) context.Context {
	return context.WithValue(ctx, nodeKey{}, node)
}

// NodeFrom returns the current node, or nil when the context carries
// none (pipeline stages invoked outside a recorded run).
func NodeFrom(ctx context.Context) *Node {
	n, _ := ctx.Value(nodeKey{}).(*Node)
	return n
}
