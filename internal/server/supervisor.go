package server

import (
	"fmt"
	"sync"
	"time"
)

// Daemon-level supervisor.  The watchdog handles individual wedged
// builds; the supervisor watches the server as a whole — queue
// pressure at the admission gate, the age of the oldest in-flight
// build, the store's fill fraction — and flips a degraded flag with a
// human-readable reason.  Health reporting (OpHealth, `omos health`)
// surfaces the flag so operators and orchestrators see trouble while
// the daemon is still limping, not after it stops answering.
//
// Degradation is a verdict, not an action: the supervisor never sheds
// or cancels anything itself (the gate and watchdog do that).  The
// flag clears itself when the pressure passes.

// degradedState is the supervisor's current verdict.
type degradedState struct {
	reason string
}

// SupervisorConfig tunes the sampling loop.  Zero values select
// defaults.
type SupervisorConfig struct {
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// StuckBuildAfter marks the server degraded when the oldest
	// in-flight build is older than this (default 30s).
	StuckBuildAfter time.Duration
}

// The supervisor's fill thresholds: the server is degraded when the
// admission queue is fuller than queueHighWater of its bound, or the
// persistent store fuller than storeHighWater of its byte cap (a store
// without one is never full).
const (
	queueHighWater = 0.8
	storeHighWater = 0.9
)

func (c *SupervisorConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.StuckBuildAfter <= 0 {
		c.StuckBuildAfter = 30 * time.Second
	}
}

// Degraded reports the supervisor's current verdict and its reason
// (empty when healthy or when no supervisor is running).
func (s *Server) Degraded() (bool, string) {
	if d := s.degraded.Load(); d != nil {
		return true, d.reason
	}
	return false, ""
}

// InflightOldestAge reports the age of the oldest in-flight build
// (zero when none are in flight).
func (s *Server) InflightOldestAge() time.Duration {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	var oldest time.Time
	for _, f := range s.inflight {
		if oldest.IsZero() || f.started.Before(oldest) {
			oldest = f.started
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// StartSupervisor launches the sampling loop and returns an
// idempotent stop function.
func (s *Server) StartSupervisor(cfg SupervisorConfig) (stop func()) {
	cfg.defaults()
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
			}
			s.superviseOnce(cfg)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-done
		})
	}
}

// superviseOnce takes one sample and updates the degraded flag.
func (s *Server) superviseOnce(cfg SupervisorConfig) {
	var reasons []string
	if age := s.InflightOldestAge(); age >= cfg.StuckBuildAfter {
		reasons = append(reasons, fmt.Sprintf("build in flight for %v (bound %v)",
			age.Round(time.Millisecond), cfg.StuckBuildAfter))
	}
	if a := s.admit; a != nil {
		if q, depth := a.Queued(), a.QueueDepth(); depth > 0 &&
			float64(q) >= queueHighWater*float64(depth) {
			reasons = append(reasons, fmt.Sprintf("admission queue %d/%d", q, depth))
		}
	}
	s.cacheMu.RLock()
	stor := s.store
	s.cacheMu.RUnlock()
	if stor != nil {
		if maxB := stor.MaxBytes(); maxB > 0 {
			if b := stor.Stats().Bytes; float64(b) >= storeHighWater*float64(maxB) {
				reasons = append(reasons, fmt.Sprintf("store %d/%d bytes", b, maxB))
			}
		}
	}
	if len(reasons) == 0 {
		s.degraded.Store(nil)
		return
	}
	reason := reasons[0]
	for _, r := range reasons[1:] {
		reason += "; " + r
	}
	s.degraded.Store(&degradedState{reason: reason})
}
