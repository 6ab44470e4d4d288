package store

import (
	"reflect"
	"testing"
)

// TestCodecRejectsFutureVersion pins the version window: exactly
// Version decodes.  A blob stamped by a newer daemon — or by an older
// one, now that the v1–v3 decoders are gone — is stale output and must
// be rejected (the server quarantines and rebuilds), not misparsed.
func TestCodecRejectsFutureVersion(t *testing.T) {
	blob, err := Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{Version + 1, Version - 1, 1} {
		bad := append([]byte(nil), blob...)
		bad[4] = ver
		if err := Verify(bad); err == nil {
			t.Errorf("Verify accepted version %d", ver)
		}
		if _, err := Decode(bad); err == nil {
			t.Errorf("Decode accepted version %d", ver)
		}
	}
}

// TestCodecRoundTripsBindings pins the stable-resolution tail: a
// record with bindings and pins survives Encode/Decode exactly.
func TestCodecRoundTripsBindings(t *testing.T) {
	rec := sampleRecord()
	rec.BindKey = "bind-key-1"
	rec.Gen = 17
	rec.Bindings = []Binding{
		{Symbol: "printf", Definer: "/lib/libc", DefKey: "ck-libc", LibIdx: 0, Addr: 0x1000010},
		{Symbol: "qsort", Definer: "/lib/util", DefKey: "ck-util", LibIdx: 1, Addr: 0x1200040},
	}
	rec.Pins = []LibPin{
		{LibKey: "feedbeef0001", ContentKey: "ck-libc", Checksum: "aa55"},
		{LibKey: "feedbeef0002", ContentKey: "ck-util", Checksum: ""},
	}
	blob, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", rec, got)
	}
}

// TestCodecRejectsOutOfRangeBindingIndex: a binding whose library
// index points outside the record's library list is a corrupt record
// and must fail decode (the server then quarantines the blob) rather
// than replay a nonsense resolution.
func TestCodecRejectsOutOfRangeBindingIndex(t *testing.T) {
	rec := sampleRecord()
	rec.BindKey = "bind-key-1"
	rec.Bindings = []Binding{
		{Symbol: "printf", Definer: "/lib/libc", DefKey: "ck", LibIdx: uint32(len(rec.LibKeys)), Addr: 1},
	}
	blob, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(blob); err != nil {
		t.Fatalf("envelope must still verify (the corruption is structural): %v", err)
	}
	if _, err := Decode(blob); err == nil {
		t.Fatal("Decode accepted a binding index outside the library list")
	}
}
