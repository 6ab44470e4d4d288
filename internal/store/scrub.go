package store

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"omos/internal/fault"
)

// The background scrubber re-verifies blob checksums continuously
// instead of waiting for a read to trip over rot: a damaged blob is
// quarantined *before* a warm restart or cache miss would have served
// it into the reconstruction path.  It also sweeps .tmp orphans from
// crashed writes continuously rather than only at Open.
//
// The walk is rate-limited (scrubPerTick blobs per tick) so scrubbing
// a large store never competes with request traffic for disk
// bandwidth.  A verification failure is confirmed by a second
// independent read before the blob is quarantined — a transient read
// error (or an injected store.scrub fault) must never cost a healthy
// blob.

const (
	// scrubPerTick is how many blobs one scrub tick verifies.
	scrubPerTick = 4
	// orphanAge is the minimum age of a .tmp file before the sweeper
	// treats it as a crashed write's orphan rather than a Put in
	// progress.
	orphanAge = time.Minute
)

// StartScrub launches the background scrubber, one tick every interval
// (1s when it is not positive), and returns a stop function
// (idempotent; also called by Close).  Restarting replaces any previous
// scrubber.
func (s *Store) StartScrub(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	if s.scrubStop != nil {
		close(s.scrubStop)
	}
	stopCh := make(chan struct{})
	s.scrubStop = stopCh
	s.mu.Unlock()

	done := make(chan struct{})
	go s.scrubLoop(interval, stopCh, done)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			mine := s.scrubStop == stopCh
			if mine {
				s.scrubStop = nil
			}
			s.mu.Unlock()
			if mine {
				// Otherwise Close or a replacing StartScrub already
				// closed the channel; just wait for the loop to exit.
				close(stopCh)
			}
			<-done
		})
	}
}

// scrubLoop walks the key space round-robin, scrubPerTick blobs per
// tick, sweeping write orphans once per full pass.
func (s *Store) scrubLoop(interval time.Duration, stopCh <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	cursor := ""
	for {
		select {
		case <-stopCh:
			return
		case <-ticker.C:
		}
		keys := s.keysSorted()
		if len(keys) == 0 {
			s.sweepOrphans()
			continue
		}
		// Resume after the cursor; wrap (and sweep orphans) at the end
		// of a pass.
		start := sort.SearchStrings(keys, cursor)
		for start < len(keys) && keys[start] <= cursor {
			start++
		}
		if start >= len(keys) {
			start = 0
			s.sweepOrphans()
		}
		for i := 0; i < scrubPerTick && i+start < len(keys); i++ {
			key := keys[start+i]
			s.scrubOne(key)
			cursor = key
		}
	}
}

// keysSorted snapshots the index keys in lexical order (a stable walk
// order independent of LRU churn).
func (s *Store) keysSorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scrubOne re-verifies a single blob's checksum.  A first failure is
// confirmed by an independent second read before quarantining: the
// file on disk is the authority, and a transient read fault must not
// cost a healthy blob.  A blob deleted or replaced between reads
// simply passes (absent keys were evicted; replaced bytes carry their
// own valid checksum).
func (s *Store) scrubOne(key string) {
	if !s.Has(key) {
		return
	}
	s.mu.Lock()
	s.stats.ScrubChecked++
	s.mu.Unlock()
	bad, readable := s.verifyOnce(key)
	if !readable || !bad {
		return
	}
	// Confirm with a second read: only persistent damage quarantines.
	bad, readable = s.verifyOnce(key)
	if !readable || !bad {
		return
	}
	s.Quarantine(key)
	s.mu.Lock()
	s.stats.ScrubQuarantined++
	s.mu.Unlock()
}

// verifyOnce performs one read+checksum pass.  readable is false when
// the blob could not be read at all (absent, evicted mid-walk, or an
// injected read error) — never grounds for quarantine.
func (s *Store) verifyOnce(key string) (bad, readable bool) {
	path, err := s.blobPath(key)
	if err != nil {
		return false, false
	}
	if err := s.faults.Fire(fault.SiteStoreScrub); err != nil {
		return false, false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return false, false
	}
	b = s.faults.Corrupt(fault.SiteStoreScrub, b)
	return Verify(b) != nil, true
}

// sweepOrphans removes .tmp files old enough that no in-progress Put
// can still own them, counting each sweep.
func (s *Store) sweepOrphans() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanAge)
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(s.dir, name)) == nil {
			s.mu.Lock()
			s.stats.ScrubOrphans++
			s.mu.Unlock()
		}
	}
}
