package store

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"omos/internal/fault"
	"omos/internal/lebin"
)

// headOnly is rec with the body's fields zeroed: what DecodeHead
// returns for it.
func headOnly(rec *Record) *Record {
	return &Record{
		Key: rec.Key, Name: rec.Name, SolverKey: rec.SolverKey,
		TextBase: rec.TextBase, TextSize: rec.TextSize, DataBase: rec.DataBase, DataSize: rec.DataSize,
		ContentKey: rec.ContentKey, LibKeys: rec.LibKeys,
		BindKey: rec.BindKey, Gen: rec.Gen, Bindings: rec.Bindings, Pins: rec.Pins,
	}
}

// TestDecodeHead: the head decodes from the envelope and head alone,
// carries every head field and no body field, and its Sum is the 32
// bytes at offset 12 — the blob identity.  A damaged body passes
// DecodeHead (nothing reads it) and fails Decode and Verify.
func TestDecodeHead(t *testing.T) {
	rec := goldenRecord()
	blob, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	span := headSpan(blob)
	for name, b := range map[string][]byte{"whole blob": blob, "envelope and head": blob[:span]} {
		h, err := DecodeHead(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(h.Record, headOnly(rec)) {
			t.Errorf("%s: head\n got %+v\nwant %+v", name, h.Record, headOnly(rec))
		}
		if !bytes.Equal(h.Sum[:], blob[12:44]) {
			t.Errorf("%s: Sum %x, blob identity %x", name, h.Sum, blob[12:44])
		}
	}
	if _, err := DecodeHead(blob[:span-1]); err == nil {
		t.Error("DecodeHead accepted a truncated head")
	}
	if _, err := DecodeEpoch(blob); err == nil {
		t.Error("DecodeEpoch accepted an image record")
	}

	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeHead(bad); err != nil {
		t.Errorf("DecodeHead read the body: %v", err)
	}
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a damaged body")
	}
	if err := Verify(bad); err == nil {
		t.Error("Verify accepted a damaged body")
	}

	epoch, err := EncodeEpoch(goldenEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHead(epoch); err == nil {
		t.Error("DecodeHead accepted an epoch record")
	}
}

// bigHeadRecord has a head longer than GetHead's first read.
func bigHeadRecord() *Record {
	rec := goldenRecord()
	rec.Bindings = nil
	for i := 0; len(rec.Bindings)*64 < 2*headRead; i++ {
		rec.Bindings = append(rec.Bindings, Binding{
			Symbol: fmt.Sprintf("symbol_%04d", i), Definer: "/lib/libc", DefKey: "content-key-of-libc", Addr: uint64(i),
		})
	}
	return rec
}

// TestGetHead: GetHead returns exactly the envelope and head, in one
// read or two, through the store.read fault site; it is not a Load and
// does not move LRU order.
func TestGetHead(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]*Record{"small": goldenRecord(), "big": bigHeadRecord()}
	blobs := map[string][]byte{}
	for _, k := range []string{"small", "big"} {
		if blobs[k], err = Encode(recs[k]); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, blobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if span := headSpan(blobs["big"]); span <= headRead {
		t.Fatalf("big head spans %d bytes, want more than %d", span, headRead)
	}
	lru := s.KeysLRU()
	for k, blob := range blobs {
		b, ok, err := s.GetHead(k)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(b, blob[:headSpan(blob)]) {
			t.Fatalf("%s: GetHead returned %d bytes, want the %d of envelope and head", k, len(b), headSpan(blob))
		}
		h, err := DecodeHead(b)
		if err != nil || !reflect.DeepEqual(h.Record, headOnly(recs[k])) {
			t.Fatalf("%s: DecodeHead: %v", k, err)
		}
	}
	if _, ok, err := s.GetHead("missing"); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	if got := s.Stats().Loads; got != 0 {
		t.Fatalf("GetHead counted %d loads", got)
	}
	if got := s.KeysLRU(); !reflect.DeepEqual(got, lru) {
		t.Fatalf("GetHead moved LRU order %v -> %v", lru, got)
	}

	f := fault.New(1)
	f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindError, EveryN: 1, Count: 1})
	s.SetFaults(f)
	if _, _, err := s.GetHead("small"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("GetHead under store.read error: %v", err)
	}
	f.Enable(fault.Rule{Site: fault.SiteStoreRead, Kind: fault.KindCorrupt, EveryN: 1, Count: 1})
	b, _, err := s.GetHead("small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHead(b); err == nil {
		t.Fatal("DecodeHead accepted a head read through a corrupt fault")
	}
}

// FuzzStoreDecodeHead: DecodeHead never panics, whatever it is given —
// the fuzzer's bytes as a blob, and the same bytes sealed as a head's
// fields so the parser behind the checksum is reached — and allocates
// no more than a small multiple of the input plus a constant: every
// element it allocates for (a library key, a binding, a pin) is at most
// four times its smallest encoding, and nothing is allocated for a
// length or count the input cannot hold.
func FuzzStoreDecodeHead(f *testing.F) {
	for _, rec := range []*Record{goldenRecord(), {Key: "k"}} {
		if blob, err := Encode(rec); err == nil {
			f.Add(blob)
			var head lebin.Writer
			writeHead(&head, rec)
			f.Add([]byte(head))
		}
	}
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := seal(append(lebin.Writer(nil), data...), nil)
		for _, b := range [][]byte{data, sealed} {
			var h *Head
			got := allocatedBy(func() { h, _ = DecodeHead(b) })
			if limit := 4*uint64(len(data)) + 64<<10; got > limit {
				t.Fatalf("%d input bytes made DecodeHead allocate %d", len(data), got)
			}
			if h != nil && h.Key == "" {
				t.Fatal("DecodeHead accepted an empty key")
			}
		}
	})
}

// allocatedBy returns the bytes f allocated (process-wide).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
