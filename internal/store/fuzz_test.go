package store

import (
	"reflect"
	"testing"
)

// FuzzStoreDecode feeds arbitrary bytes to the codec: Decode must
// never panic, and anything it accepts must re-encode and re-decode
// to the same record (the store round-trips what it validates).
func FuzzStoreDecode(f *testing.F) {
	for _, rec := range []*Record{sampleRecord(), goldenRecord()} {
		if blob, err := Encode(rec); err == nil {
			f.Add(blob)
		}
	}
	if blob, err := Encode(&Record{Key: "k"}); err == nil {
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		blob, err := Encode(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		rec2, err := Decode(blob)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip mismatch:\nfirst  %+v\nsecond %+v", rec, rec2)
		}
	})
}
