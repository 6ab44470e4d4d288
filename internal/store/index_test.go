package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"omos/internal/fault"
	"omos/internal/lebin"
)

// TestForgedIndex is the index file's rows of the forged-input table
// (internal/lebin/forged_test.go holds the decoders reachable from
// outside the package): a claimed 1,000,000 entries, a claimed 1 MiB
// key and a row claiming a 1 MiB head are refused as implausible with
// next to nothing allocated, and a store whose index says so still
// opens — the index is advisory — and reads the head from the blob.
func TestForgedIndex(t *testing.T) {
	var head lebin.Writer
	head.Raw(indexMagic[:])
	head.U32(Version)
	blob, err := Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		build func(w *lebin.Writer)
		want  string
	}{
		"count": {func(w *lebin.Writer) { w.U32(1000000) }, "implausible count 1000000"},
		"key":   {func(w *lebin.Writer) { w.U32(1); w.U32(1 << 20) }, "implausible length 1048576"},
		"head": {func(w *lebin.Writer) {
			w.U32(1)
			w.Str("aa01")
			w.U64(1)
			w.U64(uint64(len(blob)))
			w.U32(1 << 20)
		}, "implausible length 1048576"},
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
		if err := os.WriteFile(filepath.Join(dir, "aa01"+blobExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		past := time.Now().Add(-time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "aa01"+blobExt), past, past); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index"), in, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("%s: Open with a forged index: %v", name, err)
		}
		if b, ok, err := s.GetHead("aa01"); err != nil || !ok || !bytes.Equal(b, blob[:headSpan(blob)]) {
			t.Errorf("%s: GetHead after a forged index: ok=%v err=%v, %d bytes", name, ok, err, len(b))
		}
		if got := s.Stats().IndexHeads; got != 0 {
			t.Errorf("%s: %d heads served from a forged index", name, got)
		}
		if err := s.Put("aa01", []byte("blob")); err != nil {
			t.Errorf("%s: Put after a forged index: %v", name, err)
		}
		s.Close()
	}
}

// ageBlobs moves every blob's modification time an hour into the past,
// before the index file's: each row of the index may then serve.
func ageBlobs(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+blobExt))
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

// TestIndexHeads: a row of the index serves its blob's head when the
// index's checksum holds, the blob is the row's size and older than
// the index; once, through the store.read fault site, counted in
// IndexHeads.  Any other head — a blob rewritten after the index, one
// of another size, any row of a damaged index, a row ForgetHeads
// dropped — is read from its blob.  A Flush that changed nothing
// rewrites the same bytes.
func TestIndexHeads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"aa01", "bb02", "cc03", "dd04", "ee05"}
	blobs := map[string][]byte{}
	for i, k := range keys {
		rec := goldenRecord()
		rec.Key = k
		if i == 0 {
			rec = bigHeadRecord()
		}
		if blobs[k], err = Encode(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, blobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ageBlobs(t, dir)
	index, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatal(err)
	}

	// Rewritten after the index: same bytes, a new modification time.
	if err := os.WriteFile(filepath.Join(dir, "bb02"+blobExt), blobs["bb02"], 0o644); err != nil {
		t.Fatal(err)
	}
	// Another size, older than the index.
	grown := append(append([]byte(nil), blobs["cc03"]...), 0)
	if err := os.WriteFile(filepath.Join(dir, "cc03"+blobExt), grown, 0o644); err != nil {
		t.Fatal(err)
	}
	ageBlobs(t, dir)
	if err := os.Chtimes(filepath.Join(dir, "bb02"+blobExt), time.Now().Add(time.Hour), time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.New(1)
	s.SetFaults(f)
	lru := s.KeysLRU()
	for _, c := range []struct {
		key    string
		served uint64 // IndexHeads after
	}{
		{"aa01", 1}, // a head longer than one read of its blob
		{"bb02", 1}, // rewritten after the index
		{"cc03", 1}, // another size
		{"aa01", 1}, // served once, then read from the blob
	} {
		b, ok, err := s.GetHead(c.key)
		if err != nil || !ok || !bytes.Equal(b, blobs[c.key][:headSpan(blobs[c.key])]) {
			t.Fatalf("%s: ok=%v err=%v, %d bytes", c.key, ok, err, len(b))
		}
		if got := s.Stats().IndexHeads; got != c.served {
			t.Fatalf("after %s: IndexHeads = %d, want %d", c.key, got, c.served)
		}
	}
	if got := f.Trips(fault.SiteStoreRead); got != 0 {
		t.Fatalf("store.read tripped %d times with no rule", got)
	}
	f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindError, EveryN: 1, Count: 1})
	if _, _, err := s.GetHead("dd04"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("index head under store.read error: %v", err)
	}
	f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindCorrupt, EveryN: 1, Count: 1})
	b, _, err := s.GetHead("ee05")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHead(b); err == nil {
		t.Fatal("DecodeHead accepted an index head read through a corrupt fault")
	}
	if got := s.Stats(); got.IndexHeads != 2 || got.Loads != 0 {
		t.Fatalf("IndexHeads %d, Loads %d; want 2 and 0", got.IndexHeads, got.Loads)
	}
	if got := s.KeysLRU(); !reflect.DeepEqual(got, lru) {
		t.Fatalf("GetHead moved LRU order %v -> %v", lru, got)
	}

	// A store that changed nothing flushes the index it opened with,
	// whatever its heads were read from.
	s.ForgetHeads()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cc03"+blobExt), blobs["cc03"], 0o644); err != nil {
		t.Fatal(err)
	}
	ageBlobs(t, dir)
	s, err = Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(filepath.Join(dir, indexName)); !bytes.Equal(again, index) {
		t.Fatalf("an unchanged store flushed a different index (%d bytes, was %d)", len(again), len(index))
	}
	s.ForgetHeads()
	if _, _, err := s.GetHead("dd04"); err != nil || s.Stats().IndexHeads != 0 {
		t.Fatalf("a head served after ForgetHeads: err=%v, IndexHeads %d", err, s.Stats().IndexHeads)
	}

	// One damaged byte anywhere in the index: no row serves.
	for _, at := range []int{len(index) / 2, len(index) - 1} {
		bad := append([]byte(nil), index...)
		bad[at] ^= 0x01
		if err := os.WriteFile(filepath.Join(dir, indexName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		ageBlobs(t, dir)
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if b, ok, err := s.GetHead(k); err != nil || !ok || !bytes.Equal(b, blobs[k][:headSpan(blobs[k])]) {
				t.Fatalf("damaged index at %d, %s: ok=%v err=%v", at, k, ok, err)
			}
		}
		if got := s.Stats().IndexHeads; got != 0 {
			t.Fatalf("a damaged index at %d served %d heads", at, got)
		}
	}
}

// TestFlushUnchangedIndex: recency is written as a rank, so a Flush
// whose keys, sizes and LRU order match the index file, every row
// trusted, leaves the file as it is; any change to those, or a row
// the store did not trust, writes a new one.  An empty store still
// writes its (empty) index.
func TestFlushUnchangedIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := func(k string) []byte {
		t.Helper()
		rec := goldenRecord()
		rec.Key = k
		b, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	put := func(k string) {
		t.Helper()
		if err := s.Put(k, blob(k)); err != nil {
			t.Fatal(err)
		}
	}
	var last os.FileInfo
	flush := func(step string, rewrite bool) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, indexName))
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && os.SameFile(last, info) == rewrite {
			t.Fatalf("%s: index rewritten %v, want %v", step, !rewrite, rewrite)
		}
		last = info
	}
	flush("empty store", true)
	for _, k := range []string{"cc03", "aa01", "bb02"} {
		put(k)
	}
	flush("first", true)
	flush("nothing changed", false)
	s.Touch("bb02")
	flush("most recent key used again", false)
	s.Touch("cc03")
	flush("least recent key used", true)
	put("ee05")
	flush("new key", true)
	s.Delete("ee05")
	flush("most recent key deleted", true)
	put("dd04")
	flush("another new key", true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ageBlobs(t, dir)
	s, err = Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.KeysLRU(), []string{"aa01", "bb02", "cc03", "dd04"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LRU order after a restart %v, want %v", got, want)
	}
	flush("restart", false)
	s.Touch("dd04")
	flush("restart, most recent key used again", false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A blob the store did not write has no recency: its row records
	// rank 0.
	if err := os.WriteFile(filepath.Join(dir, "ff06"+blobExt), blob("ff06"), 0o644); err != nil {
		t.Fatal(err)
	}
	ageBlobs(t, dir)
	if s, err = Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	flush("blob of unknown recency", true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A blob modified after the index file is read from disk, and its
	// row is written anew even though its bytes did not change.
	for _, k := range []string{"ff06", "bb02"} {
		later := time.Now().Add(time.Hour)
		if err := os.Chtimes(filepath.Join(dir, k+blobExt), later, later); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir, 0); err != nil {
			t.Fatal(err)
		}
		flush("distrusted row "+k, true)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzStoreIndex: parseIndex never panics, allocates no more than a
// small multiple of its input plus a constant, and returns rows in
// strictly increasing key order whose heads lie within the input.
func FuzzStoreIndex(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := Encode(goldenRecord())
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{"aa01", "bb02"} {
		if err := s.Put(k, blob); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index)
	f.Add([]byte{})
	f.Add(indexMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows []indexRow
		got := allocatedBy(func() { rows, _ = parseIndex(data) })
		if limit := 4*uint64(len(data)) + 64<<10; got > limit {
			t.Fatalf("%d input bytes made parseIndex allocate %d", len(data), got)
		}
		for i, row := range rows {
			if i > 0 && string(row.key) <= string(rows[i-1].key) {
				t.Fatalf("row %d key %q follows %q", i, row.key, rows[i-1].key)
			}
			if len(row.head) > len(data) {
				t.Fatalf("row %d head of %d bytes from %d input bytes", i, len(row.head), len(data))
			}
		}
	})
}
