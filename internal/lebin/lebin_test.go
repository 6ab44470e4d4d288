package lebin_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"omos/internal/lebin"
)

func TestRoundTrip(t *testing.T) {
	var w lebin.Writer
	w.Raw([]byte("MAGC"))
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.Str("héllo")
	w.Str("")
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.U32(2) // a list of two u64
	w.U64(7)
	w.U64(8)

	// The layout is fixed: little-endian integers, u32 length prefixes.
	wantHead := []byte{'M', 'A', 'G', 'C', 0xab, 0xef, 0xbe, 0xad, 0xde,
		0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 6, 0, 0, 0, 'h', 0xc3, 0xa9}
	if !bytes.HasPrefix(w, wantHead) {
		t.Fatalf("encoding starts % x, want % x", []byte(w[:len(wantHead)]), wantHead)
	}

	r := lebin.NewReader(w)
	if got := r.Raw(4); string(got) != "MAGC" {
		t.Errorf("Raw = %q", got)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Str(); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	blob := r.Blob()
	if !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", blob)
	}
	if got := r.Blob(); got == nil || len(got) != 0 {
		t.Errorf("empty Blob = %#v, want empty and non-nil", got)
	}
	if n := r.Count(8); n != 2 {
		t.Errorf("Count = %d", n)
	}
	if a, b := r.U64(), r.U64(); a != 7 || b != 8 {
		t.Errorf("list = %d, %d", a, b)
	}
	if r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("after the last field: err %v, rest %d", r.Err(), r.Rest())
	}

	// Blob hands out a copy: the decoded record must not alias the
	// buffer it was read from (store blobs are reused by the caller).
	blob[0] = 99
	if bytes.Contains(w, []byte{99, 2, 3}) {
		t.Error("Blob aliases its input")
	}
}

func TestStickyError(t *testing.T) {
	r := lebin.NewReader([]byte{1, 2, 3})
	if r.Rest() != 3 {
		t.Fatalf("Rest = %d", r.Rest())
	}
	if got := r.U32(); got != 0 || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("short U32 = %d, err %v", got, r.Err())
	}
	// A failed read consumes nothing and every later read is a zero
	// value, whatever the bytes could have satisfied.
	if r.Rest() != 3 {
		t.Errorf("Rest after failure = %d", r.Rest())
	}
	if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Blob() != nil || r.Raw(1) != nil || r.Count(1) != 0 {
		t.Error("read after failure returned a value")
	}
	r.Fail(errors.New("later"))
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("Fail replaced the first error: %v", r.Err())
	}

	r = lebin.NewReader([]byte{5})
	mine := errors.New("bad field")
	r.Fail(mine)
	if r.Err() != mine || r.U8() != 0 {
		t.Errorf("Fail on a healthy reader: err %v", r.Err())
	}
}

func TestBounds(t *testing.T) {
	// A length is held to the bytes that remain: equal is fine, one
	// more is implausible, not a short read.
	var w lebin.Writer
	w.U32(4)
	w.Raw([]byte("abcd"))
	if got := lebin.NewReader(w).Str(); got != "abcd" {
		t.Errorf("exact-fit Str = %q", got)
	}
	w[0] = 5
	for name, read := range map[string]func(*lebin.Reader){
		"Str":  func(r *lebin.Reader) { r.Str() },
		"Blob": func(r *lebin.Reader) { r.Blob() },
	} {
		r := lebin.NewReader(w)
		read(r)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible length 5") {
			t.Errorf("%s one past the end: err %v", name, r.Err())
		}
	}

	// A count times the smallest element is held to the same bytes.
	w = nil
	w.U32(3)
	w.Raw(make([]byte, 36))
	if n := lebin.NewReader(w).Count(12); n != 3 {
		t.Errorf("Count at n*min == rest = %d, want 3", n)
	}
	w[0] = 4
	r := lebin.NewReader(w)
	if n := r.Count(12); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible count 4") {
		t.Errorf("Count at n*min == rest+12: n %d, err %v", n, r.Err())
	}
	w[0] = 3
	r = lebin.NewReader(w[:len(w)-1])
	if n := r.Count(12); n != 0 || r.Err() == nil {
		t.Errorf("Count one byte short: n %d, err %v", n, r.Err())
	}
	// A huge count times a huge minimum must not wrap round to a small
	// product that fits.
	w = nil
	w.U32(1 << 31)
	if n := lebin.NewReader(w).Count(1 << 40); n != 0 {
		t.Errorf("overflowing count accepted: %d", n)
	}
	if r := lebin.NewReader(nil); r.Raw(-1) != nil || r.Err() == nil {
		t.Error("negative Raw accepted")
	}
}

// FuzzReader interprets its input as a script — one opcode byte per
// read, drawn from the bytes it then reads from — and holds the reader
// to its contract: no panic, no read past the end, and no more bytes
// allocated than the input is long plus a constant, whatever lengths
// and counts the input claims.
func FuzzReader(f *testing.F) {
	var w lebin.Writer
	w.U8(3)
	w.Str("name")
	w.U8(4)
	w.Bytes([]byte{1, 2})
	w.U8(5)
	w.U32(1)
	w.U64(9)
	f.Add([]byte(w))
	f.Add([]byte{3, 0, 0, 16, 0})         // a 1 MiB string in five bytes
	f.Add([]byte{5, 0x40, 0x42, 0x0f, 0}) // 1,000,000 elements
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := lebin.NewReader(data)
		got := allocated(func() {
			for r.Err() == nil && r.Rest() > 0 {
				before := r.Rest()
				switch op := r.U8(); op % 7 {
				case 0:
					r.U8()
				case 1:
					r.U32()
				case 2:
					r.U64()
				case 3:
					r.Str()
				case 4:
					r.Blob()
				case 5:
					min := int(op/7) + 1
					if n := r.Count(min); n*min > r.Rest() {
						t.Fatalf("Count(%d) = %d with %d bytes left", min, n, r.Rest())
					}
				case 6:
					r.Raw(int(op / 7))
				}
				if r.Rest() >= before {
					t.Fatalf("a read left %d bytes of %d", r.Rest(), before)
				}
			}
		})
		// The constant covers the error value and whatever the test
		// binary's other goroutines allocate meanwhile (TotalAlloc is
		// process-wide); a claimed length that got through would be far
		// above it.
		if limit := uint64(len(data)) + 64<<10; got > limit {
			t.Fatalf("%d input bytes made the reader allocate %d", len(data), got)
		}
	})
}
