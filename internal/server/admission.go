package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/refusal"
)

// Admission control (overload protection).  The server is sized for a
// bounded number of concurrent instantiations; beyond that, letting
// requests pile up inside the build pipeline only grows queues and
// latency until everything times out at once.  Instead, requests pass
// an admission gate at the public entry points: up to MaxInflight run
// at once, up to QueueDepth more wait their turn, and everything past
// that is shed *immediately* with a *refusal.OverloadError carrying a
// retry-after hint derived from observed hold times (the server's
// estimate of when capacity frees up).  Shedding happens before any
// work is done, so a shed request is always safe to retry — even a
// non-idempotent one.
//
// Only the top-level entry points (InstantiateCtx,
// InstantiateBlueprint) pass the gate.  Nested library instantiations
// run inside an already-admitted request; gating them would deadlock
// the admitted builds against their own dependencies.

// AdmissionConfig sizes the gate.  Zero values select defaults.
type AdmissionConfig struct {
	// MaxInflight is how many admitted requests may run concurrently
	// (default 64).
	MaxInflight int
	// QueueDepth is how many requests may wait for a slot before the
	// gate starts shedding (default 256).
	QueueDepth int
}

func (c *AdmissionConfig) defaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
}

// Admission is the gate itself.  A nil *Admission admits everything
// (the gate is opt-in; embedded/test servers run without one).
type Admission struct {
	slots      chan struct{}
	queueDepth int

	mu     sync.Mutex
	queued int

	// ewmaHoldNS is an exponentially weighted moving average of how
	// long admitted requests hold their slot — the basis of the
	// retry-after hint.
	ewmaHoldNS atomic.Int64

	admitted atomic.Uint64
	shed     atomic.Uint64
}

// NewAdmission builds a gate with the given bounds.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg.defaults()
	return &Admission{
		slots:      make(chan struct{}, cfg.MaxInflight),
		queueDepth: cfg.QueueDepth,
	}
}

// Acquire admits the caller or sheds it.  On admission the returned
// release must be called exactly once when the request finishes.  On
// shed the error is a *refusal.OverloadError; on context cancellation
// while queued it is ctx.Err().  Nil-safe: a nil gate admits
// unconditionally.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), nil
	default:
	}
	// Slow path: join the bounded queue, or shed.
	a.mu.Lock()
	if a.queued >= a.queueDepth {
		a.mu.Unlock()
		a.shed.Add(1)
		return nil, &refusal.OverloadError{Reason: "queue full", RetryAfter: a.retryAfter()}
	}
	a.queued++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
	}()
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseFunc stamps the admission and returns the once-only release
// that frees the slot and folds the hold time into the EWMA.
func (a *Admission) releaseFunc() func() {
	a.admitted.Add(1)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.observeHold(time.Since(start))
			<-a.slots
		})
	}
}

// observeHold folds one request's slot-hold duration into the EWMA
// (α = 1/8, integer arithmetic, lock-free CAS loop).
func (a *Admission) observeHold(d time.Duration) {
	ns := int64(d)
	for {
		old := a.ewmaHoldNS.Load()
		var next int64
		if old == 0 {
			next = ns
		} else {
			next = old + (ns-old)/8
		}
		if a.ewmaHoldNS.CompareAndSwap(old, next) {
			return
		}
	}
}

const (
	minRetryAfter = 5 * time.Millisecond
	maxRetryAfter = 2 * time.Second
)

// retryAfter estimates when capacity frees up: the mean hold time
// scaled by how many queued requests must drain per slot, clamped to a
// sane range so a cold gate still hints something useful.
func (a *Admission) retryAfter() time.Duration {
	hold := time.Duration(a.ewmaHoldNS.Load())
	if hold <= 0 {
		hold = minRetryAfter
	}
	a.mu.Lock()
	waves := 1 + a.queued/cap(a.slots)
	a.mu.Unlock()
	d := hold * time.Duration(waves)
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// Queued reports how many requests are waiting for a slot.
func (a *Admission) Queued() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// QueueDepth reports the configured queue bound (0 for a nil gate).
func (a *Admission) QueueDepth() int {
	if a == nil {
		return 0
	}
	return a.queueDepth
}

// Shed reports how many requests the gate has shed.
func (a *Admission) Shed() uint64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}

// Admitted reports how many requests the gate has admitted.
func (a *Admission) Admitted() uint64 {
	if a == nil {
		return 0
	}
	return a.admitted.Load()
}

// SetAdmission installs an admission gate on the server's public
// instantiation entry points.  Install before serving traffic; nil
// removes the gate.
func (s *Server) SetAdmission(a *Admission) { s.admit = a }

// Admission returns the installed gate (nil when ungated).
func (s *Server) Admission() *Admission { return s.admit }
