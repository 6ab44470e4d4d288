package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenRecord is sampleRecord with every remaining field set: the
// rebase metadata with both patch lists, the binding table and pins,
// and a library shape whose first import carries two preferences.
func goldenRecord() *Record {
	rec := sampleRecord()
	rec.Syms[0].Seg = 'T'
	rec.Syms[1].Seg = 'D'
	rec.ContentKey = "content-key-1"
	rec.ResTextBase = 0x0100_0000
	rec.ResDataBase = 0x4100_0000
	rec.EntrySeg = 'T'
	rec.AbsPatches = []Patch{{Site: 0x0100_0018, Value: 0x4100_0000, Seg: 'D'}, {Site: 0x4100_0008, Value: 0x0100_0010, Seg: 'T'}}
	rec.RelPatches = []Patch{{Site: 0x0100_0028, Seg: 'X'}}
	rec.BindKey = "bind-key-1"
	rec.Gen = 17
	rec.Bindings = []Binding{
		{Symbol: "printf", Definer: "/lib/libc", DefKey: "ck-libc", LibIdx: 0, Addr: 0x1000010},
		{Symbol: "qsort", Definer: "/lib/util", DefKey: "ck-util", LibIdx: 1, Addr: 0x1200040},
	}
	rec.Pins = []LibPin{
		{LibKey: "feedbeef0001", ContentKey: "ck-libc", Checksum: "aa55"},
		{LibKey: "feedbeef0002", ContentKey: "ck-util"},
	}
	rec.Shape = &Shape{
		Content: "content-hash-1",
		PIC:     true,
		Libs:    []Dep{{Path: "/lib/util", Kind: "lib-static"}, {Path: "/lib/m"}},
		Prefs:   []DepPref{{Lib: 0, Seg: 'T', Addr: 0x0200_0000}, {Lib: 0, Seg: 'D', Addr: 0x4200_0000}},
	}
	return rec
}

func goldenEpoch() *EpochRecord {
	return &EpochRecord{
		ID:        "epoch-7",
		State:     EpochCommitting,
		CanaryPct: 25,
		Verdict:   "healthy",
		Libs: []EpochLib{
			{Path: "/lib/libc", OldSrc: "old source", NewSrc: "new source", IsLib: true, HadPrior: true},
			{Path: "/bin/tool", NewSrc: "fresh", HadPrior: false},
		},
	}
}

// goldenIndex writes an index file through the store's own calls, with
// a recency order that differs from key order.
func goldenIndex(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cc03", "aa01", "bb02"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Touch("cc03")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenDigest pins the store's three byte formats across
// commits.  A digest change is an on-disk format change: every blob a
// previous build wrote is quarantined and rebuilt, so it needs a
// Version bump, not a new digest alone.  The index is advisory: a new
// index layout takes a new indexMagic instead, and an index a previous
// build wrote then reads as absent.
func TestGoldenDigest(t *testing.T) {
	image, err := Encode(goldenRecord())
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := EncodeEpoch(goldenEpoch())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"Encode", image, "6815e0cd805efc8c10676185294a54284c9d2fd05beee84338eb05730b2f08b9"},
		{"EncodeEpoch", epoch, "2736032f973f8c25ad34e448dbc870c44ca2475363d5bea827965b215eefda8a"},
		{"Flush index", goldenIndex(t), "5d0b18ccb662568ab539cd6db3bfdef07178703a4a80529bf1ef5028616b338d"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest changed (%d bytes):\n got %s\nwant %s", c.name, len(c.enc), got, c.want)
		}
	}
}
