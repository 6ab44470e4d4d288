package server

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// flight is one in-progress image build.  Concurrent cache misses on
// the same key find the flight and wait on done instead of linking
// the same image twice; every waiter shares the builder's result.
type flight struct {
	done chan struct{}
	// started lets the degraded verdict measure in-flight build age (a
	// wedged leader shows up as an old flight).
	started time.Time
	inst    *Instance
	err     error
}

// errCtx reports whether err is a context cancellation or deadline —
// the leader's private misfortune, not a property of the build.
func errCtx(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errReElect reports whether a flight's error is private to its leader
// (the leader's own cancellation, or a watchdog timeout of the
// leader's attempt) rather than a verdict on the build: a follower
// with a live context should retry the key instead of inheriting it.
func errReElect(err error) bool {
	if errCtx(err) {
		return true
	}
	var bt *BuildTimeoutError
	return errors.As(err, &bt)
}

// buildShared resolves key through the cache, the in-flight build
// table, or — for exactly one caller — the build function.  This is
// what makes the image cache safe under contention: N concurrent
// misses on one key cost one link, with the other N-1 callers
// blocking for the shared result (they pay only the lookup they were
// already charged).
//
// The hit path takes only the cache read lock: recency is tracked by
// an atomic stamp on the entry, so concurrent warm instantiations
// never serialize on a write lock.
//
// Resilience contract:
//
//   - A waiter whose context is canceled detaches immediately; the
//     leader keeps building (the result still populates the cache).
//   - A leader that panics fails only its own request: the panic is
//     recovered into an error, Stats.Recovered is incremented, and
//     the flight is always deregistered and its done channel closed,
//     so followers can never wedge on a dead leader.
//   - A leader that died of *its own* context (not the build) hands
//     followers a context error that is not theirs; a follower whose
//     context is still live simply retries the key.
//
// With DisableCache (the cache-ablation benchmark) every caller
// builds privately and owns its instance.
func (s *Server) buildShared(ctx context.Context, key string, build func() (*Instance, error)) (*Instance, error) {
	if s.DisableCache {
		return s.runBuild(key, build)
	}
	for {
		s.cacheMu.RLock()
		e, inst := s.liveLocked(key)
		st := s.store
		s.cacheMu.RUnlock()
		if inst != nil {
			s.stats.cacheHits.Add(1)
			s.touch(key, e, st)
			return inst, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		s.cacheMu.Lock()
		if e, inst := s.liveLocked(key); inst != nil {
			st := s.store
			s.cacheMu.Unlock()
			s.stats.cacheHits.Add(1)
			s.touch(key, e, st)
			return inst, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.cacheMu.Unlock()
			select {
			case <-ctx.Done():
				// Canceled waiter detaches; the leader builds on.
				return nil, ctx.Err()
			case <-f.done:
			}
			if f.err != nil && errReElect(f.err) && ctx.Err() == nil {
				// The leader died of its own cancellation (or its
				// watchdog), not of the build; this follower is still
				// live, so retry the key — one of the retrying callers
				// becomes the next leader.
				continue
			}
			return f.inst, f.err
		}
		f := &flight{done: make(chan struct{}), started: time.Now()}
		s.inflight[key] = f
		s.cacheMu.Unlock()

		f.inst, f.err = s.runBuildWatched(key, build)
		// Deregister and wake followers unconditionally — runBuild has
		// already converted any panic into f.err, so a dying build can
		// never leave a permanently in-flight key.
		s.cacheMu.Lock()
		delete(s.inflight, key)
		s.cacheMu.Unlock()
		close(f.done)
		// Capacity enforcement runs only after this flight is
		// deregistered: an in-flight build may reference would-be
		// victims (its library instances), so eviction waits for a
		// quiet moment.  The freshly built key is exempt — the caller
		// holds it but has not mapped it yet.
		if f.err == nil {
			s.evictForCapacity(key)
		}
		return f.inst, f.err
	}
}

// runBuild executes one build function with panic isolation: a panic
// anywhere under the build (linker bugs, injected faults) becomes an
// error on this request and a Stats.Recovered increment, never a dead
// daemon.
func (s *Server) runBuild(key string, build func() (*Instance, error)) (inst *Instance, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.recovered.Add(1)
			inst = nil
			err = fmt.Errorf("server: build %s: recovered panic: %v", key, r)
		}
	}()
	return build()
}
