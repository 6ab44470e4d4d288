// Package lebin is the one field codec behind OMOS's byte formats:
// object files (obj), executable files (image), store blobs and the
// store index (store).  Every format is a flat sequence of fields —
// integers little-endian, a string or byte blob as a u32 length
// followed by the bytes, a list as a u32 count followed by the
// elements — so the formats differ only in field order, which stays
// with each package.
//
// All of them are read back as input from outside the process (client
// uploads, the disk, mesh peers), and Reader is the only code that
// turns a decoded length or count into an allocation.  One rule bounds
// both: what is claimed must fit in the bytes that remain.
package lebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Writer appends encoded fields to itself; the zero value is an empty
// encoding, and the bytes are the encoding so far.
type Writer []byte

func (w *Writer) U8(v uint8)   { *w = append(*w, v) }
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }
func (w *Writer) U64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

// Bool appends one byte, 1 for true and 0 for false.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends p with no length prefix (magics, checksums, payloads).
func (w *Writer) Raw(p []byte) { *w = append(*w, p...) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	*w = append(*w, s...)
}

// Bytes appends a length-prefixed blob.
func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.Raw(p)
}

// Reader consumes fields from a byte slice.  The first failure sticks:
// every later read returns a zero value, so a decoder reads a whole
// record and checks Err once.
type Reader struct {
	b   []byte // unread
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, nil if every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records a decoder's own validation failure unless an earlier
// one is already held.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Rest returns how many bytes are unread.
func (r *Reader) Rest() int { return len(r.b) }

// Raw returns the next n bytes without copying them (the result
// aliases the input), nil once the reader has failed.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) U8() uint8 {
	if p := r.Raw(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1; any other value fails the
// reader, so an accepted bool re-encodes to the byte it came from.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(errBadBool)
	return false
}

var errBadBool = errors.New("bool byte not 0 or 1")

func (r *Reader) U32() uint32 {
	if p := r.Raw(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.Raw(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// length reads a u32 length prefix and returns that many bytes of the
// input, refusing a length the remaining bytes cannot hold.
func (r *Reader) length() []byte {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(len(r.b)) {
		r.err = fmt.Errorf("implausible length %d", n)
	}
	return r.Raw(int(n))
}

// Blob reads a length-prefixed blob into a fresh slice.
func (r *Reader) Blob() []byte {
	src := r.length()
	if r.err != nil {
		return nil
	}
	p := make([]byte, len(src))
	copy(p, src)
	return p
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.length()) }

// Count reads a u32 element count for a list whose elements each
// encode to at least minElemBytes (positive), refusing a count the
// remaining bytes cannot hold, so the caller may allocate for it.  The
// bound uses the smallest element because that is the most elements
// the bytes could be; a larger figure would refuse valid lists of
// short elements.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(len(r.b)/minElemBytes) {
		r.err = fmt.Errorf("implausible count %d", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}
