package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"omos/internal/store"
)

// RecordOf exposes an instance's full reconstruction state — segments
// as materialized in frames, symbols, entry, placement, pins, binding
// table — to the external oracle test (oracle_test.go), which has to
// live outside the package to import internal/workload.  nil once the
// instance's frames were released.
func (s *Server) RecordOf(inst *Instance) *store.Record {
	rec, _ := s.recordOf(inst)
	return rec
}

// Identities returns, sorted, the identities a store's records and
// shapes are kept under: the content hash of every path in the
// committed namespace, and each cached image's key, content key, bind
// key and shape key.
func (s *Server) Identities() ([]string, error) {
	c := s.current()
	var ids []string
	for _, p := range s.List("/") {
		h, err := c.ContentHash(p)
		if err != nil {
			return nil, err
		}
		ids = append(ids, "path "+p+" "+h)
	}
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	for key, e := range s.entries {
		if e.inst == nil {
			return nil, fmt.Errorf("image %s is dormant", key)
		}
		shape := "none"
		if e.shape != nil {
			shape = fmt.Sprint(e.shape.key)
		}
		ids = append(ids, fmt.Sprintf("image %s key=%s content=%s bind=%s shape=%s",
			e.inst.Name, key, e.inst.ContentKey, e.inst.bindKey, shape))
	}
	sort.Strings(ids)
	return ids, nil
}

// AgeBlobs moves the modification time of every blob under dir an hour
// into the past, before the store's index file was written: each of
// the index's rows may then serve its record's head.
func AgeBlobs(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.img"))
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	for _, p := range paths {
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
}
