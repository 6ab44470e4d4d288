package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omos/internal/fault"
)

// TestFaultCrashBetweenWriteAndRename simulates a crash between the
// temp-file write and the publishing rename (via the store.rename
// injection site) and asserts the crash-consistency contract: the key
// never becomes visible, the orphaned temp file is swept on the next
// Open, and the reopened store carries no trace of the partial write.
func TestFaultCrashBetweenWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.New(1)
	if err := f.Enable(fault.Rule{Site: fault.SiteStoreRename, Kind: fault.KindError, EveryN: 1}); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(f)

	blob, err := Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef00", blob); err == nil {
		t.Fatal("Put survived the injected crash")
	} else if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put error %v is not the injected fault", err)
	}
	if s.Has("deadbeef00") {
		t.Fatal("crashed Put published the key")
	}
	// The simulated crash leaves the partial temp file behind, exactly
	// like a real kill between write and rename — and never a partial
	// blob under the live name.
	tmps, imgs := dirCensus(t, dir)
	if tmps != 1 {
		t.Fatalf("want 1 orphaned temp file after crash, found %d", tmps)
	}
	if imgs != 0 {
		t.Fatalf("crashed Put left %d live blobs", imgs)
	}

	// Warm restart: the orphan is swept, the key is absent, and a
	// clean Put publishes normally.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has("deadbeef00") || s2.Len() != 0 {
		t.Fatal("reopened store indexed the partial write")
	}
	tmps, _ = dirCensus(t, dir)
	if tmps != 0 {
		t.Fatalf("reopen left %d temp files", tmps)
	}
	if err := s2.Put("deadbeef00", blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get("deadbeef00")
	if err != nil || !ok || len(got) != len(blob) {
		t.Fatalf("rebuilt blob unreadable: ok=%v err=%v", ok, err)
	}
}

// TestFaultWriteErrorIsBestEffort: an injected store.write error
// fails the Put with a typed error and publishes nothing.
func TestFaultWriteError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.KindError, EveryN: 2})
	s.SetFaults(f)
	blob, _ := Encode(sampleRecord())
	if err := s.Put("aa11", blob); err != nil {
		t.Fatalf("first put (untriggered): %v", err)
	}
	if err := s.Put("bb22", blob); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("second put: %v, want injected", err)
	}
	if s.Has("bb22") {
		t.Fatal("failed put published")
	}
	tmps, _ := dirCensus(t, dir)
	if tmps != 0 {
		t.Fatalf("write-site fault left %d temp files (fires before the write)", tmps)
	}
}

// TestFaultQuarantine: a corrupt blob is moved to <store>/quarantine/
// — key absent, bytes preserved, counters advanced — and a reopened
// store still reports the quarantined population.
func TestFaultQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := Encode(sampleRecord())
	if err := s.Put("cafe01", blob); err != nil {
		t.Fatal(err)
	}
	s.Quarantine("cafe01")
	if s.Has("cafe01") {
		t.Fatal("quarantined key still present")
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.CorruptRejects != 1 {
		t.Fatalf("stats = %+v, want Quarantined=1 CorruptRejects=1", st)
	}
	if got := s.QuarantinedKeys(); len(got) != 1 || got[0] != "cafe01" {
		t.Fatalf("QuarantinedKeys = %v", got)
	}
	kept, err := os.ReadFile(filepath.Join(s.QuarantineDir(), "cafe01"+blobExt))
	if err != nil || len(kept) != len(blob) {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	// Reopen: quarantine survives the restart and is not re-indexed as
	// a live blob.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has("cafe01") || s2.Len() != 0 {
		t.Fatal("reopen resurrected a quarantined blob")
	}
	if s2.Stats().Quarantined != 1 {
		t.Fatalf("reopen lost the quarantine count: %+v", s2.Stats())
	}
}

// TestFaultReadCorruption: a corrupt-kind rule on store.read returns
// corrupted bytes that the codec rejects.
func TestFaultReadCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := Encode(sampleRecord())
	if err := s.Put("f00d", blob); err != nil {
		t.Fatal(err)
	}
	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindCorrupt, EveryN: 1})
	s.SetFaults(f)
	got, ok, err := s.Get("f00d")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if _, err := Decode(got); err == nil {
		t.Fatal("decoder accepted corrupted bytes")
	}
	// The on-disk blob itself is untouched: disable the rule and the
	// next read is clean.
	f.Disable(fault.SiteStoreRead)
	got, _, err = s.Get("f00d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(got); err != nil {
		t.Fatalf("clean re-read still corrupt: %v", err)
	}
}

// dirCensus counts temp files and live blobs in the store root.
func dirCensus(t *testing.T, dir string) (tmps, imgs int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		switch {
		case de.IsDir():
		case strings.HasSuffix(de.Name(), ".tmp"):
			tmps++
		case strings.HasSuffix(de.Name(), blobExt):
			imgs++
		}
	}
	return tmps, imgs
}

// TestQuarantineCountsOnce: a key quarantined in two sessions keeps one
// file in the quarantine directory, and Quarantined counts it once.
func TestQuarantineCountsOnce(t *testing.T) {
	dir := t.TempDir()
	blob, _ := Encode(sampleRecord())
	for session := 1; session <= 2; session++ {
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("cafe01", blob); err != nil {
			t.Fatal(err)
		}
		s.Quarantine("cafe01")
		if got := s.Stats().Quarantined; got != 1 {
			t.Fatalf("session %d: Quarantined = %d, want 1", session, got)
		}
		s.Close()
	}
}
