package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
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

// TestCodec5HeadRejected: a head written by codec 5, the layout before
// heads kept library shapes, is stale.  A record without a shape
// encodes as codec 5 wrote it but for the version field, so stamping 5
// there gives a genuine codec-5 blob (its digest is codec 5's
// TestGoldenDigest pin); it and a shaped head stamped 5 are rejected
// by every decoder, which the server takes as quarantine and rebuild
// (TestOldCodecBlobsQuarantinedAndRebuilt).
func TestCodec5HeadRejected(t *testing.T) {
	const codec5Digest = "7b2a8671dbffe15e5cae8c357395aed601dc6576dc7d5d7bad5a0b833d4f61d0"
	unshaped := goldenRecord()
	unshaped.Shape = nil
	for _, rec := range []*Record{unshaped, goldenRecord()} {
		blob, err := Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(blob[4:8], 5)
		if sum := sha256.Sum256(blob); rec.Shape == nil && hex.EncodeToString(sum[:]) != codec5Digest {
			t.Fatalf("a shapeless record stamped 5 is not codec 5's bytes: digest %x", sum)
		}
		if _, err := DecodeHead(blob); err == nil || !strings.Contains(err.Error(), "unsupported version 5") {
			t.Errorf("shape %v: DecodeHead: %v", rec.Shape != nil, err)
		}
		if _, err := Decode(blob); err == nil {
			t.Errorf("shape %v: Decode accepted a codec-5 blob", rec.Shape != nil)
		}
		if err := Verify(blob); err == nil {
			t.Errorf("shape %v: Verify accepted a codec-5 blob", rec.Shape != nil)
		}
	}
}

// TestCodecRejectsOutOfRangeShapePref: a shape preference naming no
// import of the shape fails decode, as an out-of-range binding does.
func TestCodecRejectsOutOfRangeShapePref(t *testing.T) {
	rec := goldenRecord()
	rec.Shape.Prefs = append(rec.Shape.Prefs, DepPref{Lib: uint32(len(rec.Shape.Libs)), Seg: 'T', Addr: 1})
	blob, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHead(blob); err == nil {
		t.Fatal("DecodeHead accepted a preference outside the shape's imports")
	}
}
