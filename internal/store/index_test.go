package store

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"omos/internal/lebin"
)

// TestForgedIndex is the index file's rows of the forged-input table
// (internal/lebin/forged_test.go holds the decoders reachable from
// outside the package): a claimed 1,000,000 entries and a claimed
// 1 MiB key are refused as implausible with next to nothing allocated,
// and a store whose index says so still opens — the index is advisory.
func TestForgedIndex(t *testing.T) {
	var head lebin.Writer
	head.Raw(indexMagic[:])
	head.U32(Version)
	for name, c := range map[string]struct {
		build func(w *lebin.Writer)
		want  string
	}{
		"count": {func(w *lebin.Writer) { w.U32(1000000) }, "implausible count 1000000"},
		"key":   {func(w *lebin.Writer) { w.U32(1); w.U32(1 << 20) }, "implausible length 1048576"},
	} {
		in := append(lebin.Writer(nil), head...)
		c.build(&in)
		in.Raw(make([]byte, 32))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseIndex(in)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", name, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: a %d-byte index allocated %d bytes", name, len(in), got)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index"), in, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("%s: Open with a forged index: %v", name, err)
		}
		if err := s.Put("aa01", []byte("blob")); err != nil {
			t.Errorf("%s: Put after a forged index: %v", name, err)
		}
		s.Close()
	}
}
