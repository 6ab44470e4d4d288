package server

import (
	"fmt"
	"time"
)

// Per-build watchdog.  A build that wedges (a hung compiler, an
// injected delay, a livelocked link) would otherwise hold its
// singleflight key forever: the leader never returns, followers block
// on the flight, and the daemon looks alive while serving nothing.
// The watchdog bounds every build: past the deadline the leader
// abandons the build goroutine and reports a *BuildTimeoutError, the
// flight deregisters as usual, and followers re-elect a new leader.
//
// The abandoned goroutine is not killed — Go cannot do that — but it
// is harmless: if it eventually finishes, publish hands the late result
// to the cache (or, finding the key taken, releases it), and the
// goroutine exits.

// BuildTimeoutError reports a build cancelled by the watchdog.  Like a
// leader's private context cancellation, it says nothing about the
// build itself, so followers with live contexts re-elect rather than
// inheriting it.
type BuildTimeoutError struct {
	Key     string
	Timeout time.Duration
}

func (e *BuildTimeoutError) Error() string {
	return fmt.Sprintf("server: build %s: watchdog timeout after %v", e.Key, e.Timeout)
}

// SetBuildTimeout bounds each singleflight build; zero or negative
// disables the watchdog.  Half of d is also the in-flight age at which
// Degraded reports a stuck build.  Set before serving traffic.
func (s *Server) SetBuildTimeout(d time.Duration) { s.buildTimeout = d }

// BuildTimeout reports the configured per-build bound.
func (s *Server) BuildTimeout() time.Duration { return s.buildTimeout }

// runBuildWatched is runBuild under the watchdog: the build runs in
// its own goroutine while the caller selects on completion or the
// deadline.  On timeout the caller walks away with a
// *BuildTimeoutError and the build goroutine is abandoned (its late
// result, if any, is absorbed by publish).
func (s *Server) runBuildWatched(key string, build func() (*Instance, error)) (*Instance, error) {
	if s.buildTimeout <= 0 {
		return s.runBuild(key, build)
	}
	type result struct {
		inst *Instance
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		inst, err := s.runBuild(key, build)
		ch <- result{inst, err}
	}()
	timer := time.NewTimer(s.buildTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.inst, r.err
	case <-timer.C:
		s.stats.buildTimeouts.Add(1)
		return nil, &BuildTimeoutError{Key: key, Timeout: s.buildTimeout}
	}
}
