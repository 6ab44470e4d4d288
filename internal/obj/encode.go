package obj

import (
	"fmt"

	"omos/internal/lebin"
)

// Binary ROF encoding.
//
// All integers are little-endian.  Layout:
//
//	magic   [4]byte  "ROF1"
//	name    string   (u32 length + bytes)
//	text    u32 length + bytes
//	data    u32 length + bytes
//	bss     u64
//	nsyms   u32, then per symbol:
//	        name string, kind u8, bind u8, defined u8,
//	        section u8, offset u64, size u64
//	nrels   u32, then per reloc:
//	        section u8, offset u64, symbol string, kind u8, addend i64
//
// The format is intentionally simple: the paper notes that parsing
// complex object file headers is one of the costs OMOS avoids by
// caching, and the osim cost model charges native exec proportionally
// to the record count here.

// Magic identifies a ROF file.
var Magic = [4]byte{'R', 'O', 'F', '1'}

// Smallest encodings of one symbol and one reloc (empty names), the
// bound lebin.Reader.Count holds a claimed count to.
const (
	minSymBytes   = 4 + 1 + 1 + 1 + 1 + 8 + 8
	minRelocBytes = 1 + 8 + 4 + 1 + 8
)

// Encode serializes the object to its binary form.
func Encode(o *Object) ([]byte, error) {
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("obj: encode: %w", err)
	}
	var w lebin.Writer
	w.Raw(Magic[:])
	w.Str(o.Name)
	w.Bytes(o.Text)
	w.Bytes(o.Data)
	w.U64(o.BSSSize)
	w.U32(uint32(len(o.Syms)))
	for i := range o.Syms {
		s := &o.Syms[i]
		w.Str(s.Name)
		w.U8(byte(s.Kind))
		w.U8(byte(s.Bind))
		if s.Defined {
			w.U8(1)
		} else {
			w.U8(0)
		}
		w.U8(byte(s.Section))
		w.U64(s.Offset)
		w.U64(s.Size)
	}
	w.U32(uint32(len(o.Relocs)))
	for i := range o.Relocs {
		r := &o.Relocs[i]
		w.U8(byte(r.Section))
		w.U64(r.Offset)
		w.Str(r.Symbol)
		w.U8(byte(r.Kind))
		w.U64(uint64(r.Addend))
	}
	return w, nil
}

// Decode parses a binary ROF image.
func Decode(b []byte) (*Object, error) {
	r := lebin.NewReader(b)
	if magic := r.Raw(4); string(magic) != string(Magic[:]) {
		return nil, fmt.Errorf("obj: bad magic %q", magic)
	}
	o := &Object{}
	o.Name = r.Str()
	o.Text = r.Blob()
	o.Data = r.Blob()
	o.BSSSize = r.U64()
	nsyms := r.Count(minSymBytes)
	o.Syms = make([]Symbol, 0, nsyms)
	for i := 0; i < nsyms && r.Err() == nil; i++ {
		var s Symbol
		s.Name = r.Str()
		s.Kind = SymKind(r.U8())
		s.Bind = Binding(r.U8())
		s.Defined = r.U8() != 0
		s.Section = SectionKind(r.U8())
		s.Offset = r.U64()
		s.Size = r.U64()
		o.Syms = append(o.Syms, s)
	}
	nrels := r.Count(minRelocBytes)
	o.Relocs = make([]Reloc, 0, nrels)
	for i := 0; i < nrels && r.Err() == nil; i++ {
		var rel Reloc
		rel.Section = SectionKind(r.U8())
		rel.Offset = r.U64()
		rel.Symbol = r.Str()
		rel.Kind = RelocKind(r.U8())
		rel.Addend = int64(r.U64())
		o.Relocs = append(o.Relocs, rel)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obj: decode: %w", err)
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("obj: %d trailing bytes", r.Rest())
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("obj: decode: %w", err)
	}
	return o, nil
}

// RecordCount returns the number of structural records in the object;
// the osim cost model uses it to price header parsing in the native
// exec path.
func (o *Object) RecordCount() int { return 3 + len(o.Syms) + len(o.Relocs) }
