package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"omos/internal/fault"
)

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestScrubQuarantinesDamagedBlob: bytes rotted at rest are found and
// quarantined by the background walk — before any Get touches them —
// while healthy blobs are checked and left alone.
func TestScrubQuarantinesDamagedBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	good, err := Encode(&Record{Key: "good", Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Encode(&Record{Key: "bad", Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", good); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bad", bad); err != nil {
		t.Fatal(err)
	}
	// Rot the second blob on disk, behind the store's back.
	p := filepath.Join(dir, "bad"+blobExt)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}

	stop := s.StartScrub(time.Millisecond)
	defer stop()
	waitFor(t, 5*time.Second, func() bool {
		return s.Stats().ScrubQuarantined >= 1
	}, "scrubber never quarantined the damaged blob")
	stop()

	st := s.Stats()
	if st.ScrubQuarantined != 1 {
		t.Fatalf("ScrubQuarantined = %d, want 1", st.ScrubQuarantined)
	}
	if s.Has("bad") {
		t.Fatal("damaged blob still indexed")
	}
	if !s.Has("good") {
		t.Fatal("healthy blob quarantined")
	}
	if st.ScrubChecked < 2 {
		t.Fatalf("ScrubChecked = %d, want >= 2", st.ScrubChecked)
	}
	// The bytes survive for autopsy.
	if _, err := os.Stat(filepath.Join(s.QuarantineDir(), "bad"+blobExt)); err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
}

// TestScrubTransientFaultSparesHealthyBlob: an injected one-shot
// corruption of the scrubber's *read* (the disk bytes are fine) fails
// the first pass but is refuted by the confirming re-read — a healthy
// blob must never be quarantined.
func TestScrubTransientFaultSparesHealthyBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blob, err := Encode(&Record{Key: "k", Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", blob); err != nil {
		t.Fatal(err)
	}
	f := fault.New(1)
	// Corrupt exactly one scrubber read; the confirm read sees clean
	// bytes.
	f.Enable(fault.Rule{Site: fault.SiteStoreScrub, Kind: fault.KindCorrupt, EveryN: 1, Count: 1})
	s.SetFaults(f)

	stop := s.StartScrub(time.Millisecond)
	defer stop()
	waitFor(t, 5*time.Second, func() bool {
		return s.Stats().ScrubChecked >= 3 && f.Trips(fault.SiteStoreScrub) >= 1
	}, "scrubber never revisited the blob after the faulted read")
	stop()

	if q := s.Stats().ScrubQuarantined; q != 0 {
		t.Fatalf("scrubber quarantined a healthy blob (ScrubQuarantined = %d)", q)
	}
	if !s.Has("k") {
		t.Fatal("healthy blob evicted")
	}
}

// TestScrubSweepsOrphans: stray .tmp files older than orphanAge are
// removed by the continuous sweep; fresh ones (a Put in progress) are
// left alone.
func TestScrubSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	old := filepath.Join(dir, "crashed.123.tmp")
	if err := os.WriteFile(old, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "inflight.456.tmp")
	if err := os.WriteFile(fresh, []byte("writing"), 0o644); err != nil {
		t.Fatal(err)
	}

	stop := s.StartScrub(time.Millisecond)
	defer stop()
	waitFor(t, 5*time.Second, func() bool {
		return s.Stats().ScrubOrphans >= 1
	}, "scrubber never swept the stale orphan")
	stop()

	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("stale orphan survived (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file swept: %v", err)
	}
}

// TestScrubStopIdempotent: stop funcs and Close may race and repeat
// without panicking.
func TestScrubStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := s.StartScrub(time.Millisecond)
	stop2 := s.StartScrub(time.Millisecond) // replaces the first
	stop()
	if err := s.Close(); err != nil { // closes the second
		t.Fatal(err)
	}
	stop2()
	stop()
}
