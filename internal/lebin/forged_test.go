package lebin_test

import (
	"crypto/sha256"
	"runtime"
	"strings"
	"testing"

	"omos/internal/image"
	"omos/internal/lebin"
	"omos/internal/obj"
	"omos/internal/store"
)

// The forged-input table: for every string, blob and list position of
// every format decoded through this package, an input that is valid up
// to that field and then claims a 1 MiB string or blob, or 1,000,000
// elements, with 32 bytes behind the claim.  The decoder must refuse
// the claim itself — the "implausible" error, not a short read after
// allocating for it — and stay under 64 KiB allocated.

const (
	claimLen   = 1 << 20
	claimCount = 1000000
	tailBytes  = 32
)

type forgedRow struct {
	name  string
	want  string // error text
	input []byte
}

// forger writes a small valid encoding of a format — one-byte strings,
// empty lists — and records a forged input at each length or count it
// passes.
type forger struct {
	lebin.Writer
	at   string // enclosing list, for row names
	rows *[]forgedRow
}

func (f *forger) forge(name string, claim uint32, want string) {
	in := append(lebin.Writer(nil), f.Writer...)
	in.U32(claim)
	in.Raw(make([]byte, tailBytes))
	*f.rows = append(*f.rows, forgedRow{f.at + name, want, in})
}

// str passes a string or blob field.
func (f *forger) str(name string) {
	f.forge(name, claimLen, "implausible length 1048576")
	f.Str("k")
}

// list passes a list: the count is forged, then each length inside one
// element (written by elem), then the list continues empty.
func (f *forger) list(name string, elem func(e *forger)) {
	f.forge(name+" count", claimCount, "implausible count 1000000")
	e := &forger{Writer: append(lebin.Writer(nil), f.Writer...), at: f.at + name + ".", rows: f.rows}
	e.U32(1)
	elem(e)
	f.U32(0)
}

func forgedObj(f *forger) {
	f.Raw(obj.Magic[:])
	f.str("name")
	f.str("text")
	f.str("data")
	f.U64(0)
	f.list("syms", func(e *forger) { e.str("name") })
	f.list("relocs", func(e *forger) { e.U8(0); e.U64(0); e.str("symbol") })
}

func forgedExec(f *forger) {
	f.Raw(image.ExecMagic[:])
	f.str("name")
	f.U64(0)
	f.U8(0)
	f.list("segments", func(e *forger) { e.str("name"); e.U64(0); e.U64(0); e.U8(0); e.str("data") })
	f.list("needed", func(e *forger) { e.str("path") })
	f.list("dynrelocs", func(e *forger) { e.U64(0); e.U8(0); e.str("symbol") })
	f.list("lazyslots", func(e *forger) { e.U64(0); e.str("symbol") })
	f.list("exports", func(e *forger) { e.str("name") })
	f.list("syms", func(e *forger) { e.str("name") })
}

// forgedHead and forgedBody are the two halves of a store image record.
func forgedHead(f *forger) {
	f.U8(0) // image record
	f.str("key")
	f.str("name")
	f.str("solverkey")
	f.Raw(make([]byte, 4*8))
	f.str("contentkey")
	f.list("libkeys", func(e *forger) { e.str("key") })
	f.str("bindkey")
	f.U64(0)
	f.list("bindings", func(e *forger) { e.str("symbol"); e.str("definer"); e.str("defkey") })
	f.list("pins", func(e *forger) { e.str("libkey"); e.str("contentkey"); e.str("checksum") })
}

func forgedBody(f *forger) {
	seg := func(e *forger) { e.str("name"); e.U64(0); e.U64(0); e.U8(0); e.str("data") }
	f.U64(0)
	f.list("syms", func(e *forger) { e.str("name") })
	f.Raw(make([]byte, 5*8))
	f.list("rosegs", seg)
	f.list("rwsegs", seg)
	f.list("btslots", func(e *forger) { e.str("name") })
	f.Raw(make([]byte, 8+8+1))
	f.list("abspatches", func(e *forger) {})
	f.list("relpatches", func(e *forger) {})
}

func forgedEpoch(f *forger) {
	f.U8(1) // epoch record
	f.str("id")
	f.U8(store.EpochActive)
	f.U32(0)
	f.str("verdict")
	f.list("libs", func(e *forger) { e.str("path"); e.str("oldsrc"); e.str("newsrc") })
}

// sealed wraps a head's fields and a body in a valid store envelope,
// so the forgery is one a peer or a disk could present: both checksums
// match.
func sealed(head, body []byte) []byte {
	bodySum := sha256.Sum256(body)
	h := append(lebin.Writer(nil), head...)
	h.U64(uint64(len(body)))
	h.Raw(bodySum[:])
	return enveloped(h, body)
}

// enveloped puts a whole head (fields and trailer) and a body behind a
// store envelope whose head checksum matches.
func enveloped(head, body []byte) []byte {
	headSum := sha256.Sum256(head)
	var w lebin.Writer
	w.Raw(store.Magic[:])
	w.U32(store.Version)
	w.U32(uint32(len(head)))
	w.Raw(headSum[:])
	w.Raw(head)
	w.Raw(body)
	return w
}

// validHead is the fields of a small valid image head, the one the body
// rows are sealed behind.
func validHead() []byte {
	var rows []forgedRow
	f := &forger{rows: &rows}
	forgedHead(f)
	return f.Writer
}

// allocated returns the bytes f allocated (process-wide, so a little
// more when other goroutines run).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestForgedInputs(t *testing.T) {
	check := func(name, want string, input []byte, decode func([]byte) error) {
		t.Helper()
		var err error
		got := allocated(func() { err = decode(input) })
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want %q", name, err, want)
		}
		if got >= 64<<10 {
			t.Errorf("%s: a %d-byte input allocated %d bytes", name, len(input), got)
		}
	}
	for _, c := range []struct {
		name   string
		build  func(*forger)
		rows   int
		decode func([]byte) error
	}{
		{"obj.Decode", forgedObj, 7, func(b []byte) error { _, err := obj.Decode(b); return err }},
		{"image.DecodeExec", forgedExec, 14, func(b []byte) error { _, err := image.DecodeExec(b); return err }},
		{"store.DecodeHead", forgedHead, 15, func(b []byte) error { _, err := store.DecodeHead(sealed(b, nil)); return err }},
		{"store.Decode", forgedBody, 12, func(b []byte) error { _, err := store.Decode(sealed(validHead(), b)); return err }},
		{"store.DecodeEpoch", forgedEpoch, 6, func(b []byte) error { _, err := store.DecodeEpoch(sealed(b, nil)); return err }},
	} {
		var rows []forgedRow
		f := &forger{rows: &rows}
		c.build(f)
		// The unforged encoding decodes, so the rows are forged at the
		// format's real positions.
		if err := c.decode(f.Writer); err != nil {
			t.Errorf("%s: the unforged encoding does not decode: %v", c.name, err)
		}
		if len(rows) != c.rows {
			t.Errorf("%s: %d forged positions, want %d", c.name, len(rows), c.rows)
		}
		for _, row := range rows {
			check(c.name+" "+row.name, row.want, row.input, c.decode)
		}
	}

	// The store envelope's own lengths: a head, or a body, that claims
	// 1 GiB with 32 bytes behind the claim.  The head's length is held to
	// the blob before the head is hashed; the body's to the bytes after
	// the head (DecodeHead never looks at it).
	const claimGiB = 1 << 30
	var bigHead lebin.Writer
	bigHead.Raw(store.Magic[:])
	bigHead.U32(store.Version)
	bigHead.U32(claimGiB)
	bigHead.Raw(make([]byte, 32+tailBytes))
	bigBody := append(lebin.Writer(nil), validHead()...)
	bigBody.U64(claimGiB)
	bigBody.Raw(make([]byte, 32)) // the body checksum, never reached
	bigBody = enveloped(bigBody, make([]byte, tailBytes))
	for _, c := range []struct {
		name, want string
		input      []byte
		decode     func([]byte) error
	}{
		{"store.DecodeHead headLen", "implausible head length 1073741824", bigHead, func(b []byte) error { _, err := store.DecodeHead(b); return err }},
		{"store.Decode headLen", "implausible head length 1073741824", bigHead, func(b []byte) error { _, err := store.Decode(b); return err }},
		{"store.Verify headLen", "implausible head length 1073741824", bigHead, store.Verify},
		{"store.Decode bodyLen", "body length 1073741824", bigBody, func(b []byte) error { _, err := store.Decode(b); return err }},
		{"store.Verify bodyLen", "body length 1073741824", bigBody, store.Verify},
	} {
		check(c.name, c.want, c.input, c.decode)
	}
}
