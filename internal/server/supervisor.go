package server

import (
	"fmt"
	"strings"
	"time"
)

// The degraded verdict.  The watchdog handles individual wedged
// builds; the verdict judges the server as a whole — queue pressure at
// the admission gate, the age of the oldest in-flight build, the
// store's fill fraction — and says why it is limping.  Health
// reporting (OpHealth, `omos health`) surfaces it so operators and
// orchestrators see trouble while the daemon is still answering, not
// after it stops.
//
// Degradation is a verdict, not an action: nothing is shed or
// cancelled because of it (the gate and watchdog do that).  It is
// computed from three cheap readings each time it is asked for, so it
// needs no sampling loop and clears as soon as the pressure passes.

// The fill thresholds: the server is degraded when the admission queue
// is fuller than queueHighWater of its bound, or the persistent store
// fuller than storeHighWater of its byte cap (a store without one is
// never full).
const (
	queueHighWater = 0.8
	storeHighWater = 0.9
)

// stuckBuildAfter is the in-flight age that degrades the server when no
// watchdog is armed.  With one armed, half its bound is used instead: a
// build that old is halfway to being cancelled.
const stuckBuildAfter = 30 * time.Second

// Degraded reports whether the server is degraded and why (the reason
// is empty when it is not).
func (s *Server) Degraded() (bool, string) {
	var reasons []string
	bound := stuckBuildAfter
	if s.buildTimeout > 0 {
		bound = s.buildTimeout / 2
	}
	if age := s.InflightOldestAge(); age >= bound {
		reasons = append(reasons, fmt.Sprintf("build in flight for %v (bound %v)",
			age.Round(time.Millisecond), bound))
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
	return len(reasons) > 0, strings.Join(reasons, "; ")
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
