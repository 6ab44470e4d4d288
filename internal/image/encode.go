package image

import (
	"fmt"
	"sort"

	"omos/internal/lebin"
)

// ExecMagic identifies an executable/shared-object file.
var ExecMagic = [4]byte{'E', 'X', 'E', '1'}

// Smallest encodings of one element of each list (empty names and
// data), the bound lebin.Reader.Count holds a claimed count to.
const (
	minSegmentBytes  = 4 + 8 + 8 + 1 + 4
	minNeededBytes   = 4
	minDynRelocBytes = 8 + 1 + 4 + 8
	minLazySlotBytes = 8 + 4 + 4
	minExportBytes   = 4 + 8
	minSymBytes      = 4 + 8
)

// EncodeExec serializes an ExecFile for storage in the simulated
// filesystem.  Native exec and the baseline dynamic linker decode this
// on every program invocation; the OMOS integrated path does not.
func EncodeExec(f *ExecFile) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var w lebin.Writer
	w.Raw(ExecMagic[:])
	w.Str(f.Name)
	w.U64(f.Entry)
	flags := byte(0)
	if f.Shared {
		flags |= 1
	}
	if f.PIC {
		flags |= 2
	}
	w.U8(flags)
	w.U32(uint32(len(f.Segments)))
	for i := range f.Segments {
		s := &f.Segments[i]
		w.Str(s.Name)
		w.U64(s.Addr)
		w.U64(s.MemSize)
		w.U8(byte(s.Perm))
		w.Bytes(s.Data)
	}
	w.U32(uint32(len(f.Needed)))
	for _, n := range f.Needed {
		w.Str(n)
	}
	w.U32(uint32(len(f.DynRelocs)))
	for i := range f.DynRelocs {
		r := &f.DynRelocs[i]
		w.U64(r.Addr)
		w.U8(byte(r.Kind))
		w.Str(r.Symbol)
		w.U64(uint64(r.Addend))
	}
	w.U32(uint32(len(f.LazySlots)))
	for i := range f.LazySlots {
		s := &f.LazySlots[i]
		w.U64(s.Addr)
		w.Str(s.Symbol)
		w.U32(s.Index)
	}
	w.U32(uint32(len(f.Exports)))
	for i := range f.Exports {
		w.Str(f.Exports[i].Name)
		w.U64(f.Exports[i].Addr)
	}
	w.U32(uint32(len(f.Syms)))
	for _, name := range sortedKeys(f.Syms) {
		w.Str(name)
		w.U64(f.Syms[name])
	}
	return w, nil
}

// DecodeExec parses an executable file.
func DecodeExec(b []byte) (*ExecFile, error) {
	r := lebin.NewReader(b)
	if magic := r.Raw(4); string(magic) != string(ExecMagic[:]) {
		return nil, fmt.Errorf("image: bad exec magic %q", magic)
	}
	f := &ExecFile{}
	f.Name = r.Str()
	f.Entry = r.U64()
	flags := r.U8()
	f.Shared = flags&1 != 0
	f.PIC = flags&2 != 0
	for n := r.Count(minSegmentBytes); n > 0 && r.Err() == nil; n-- {
		var s Segment
		s.Name = r.Str()
		s.Addr = r.U64()
		s.MemSize = r.U64()
		s.Perm = Perm(r.U8())
		s.Data = r.Blob()
		f.Segments = append(f.Segments, s)
	}
	for n := r.Count(minNeededBytes); n > 0 && r.Err() == nil; n-- {
		f.Needed = append(f.Needed, r.Str())
	}
	for n := r.Count(minDynRelocBytes); n > 0 && r.Err() == nil; n-- {
		var dr DynReloc
		dr.Addr = r.U64()
		dr.Kind = DynRelocKind(r.U8())
		dr.Symbol = r.Str()
		dr.Addend = int64(r.U64())
		f.DynRelocs = append(f.DynRelocs, dr)
	}
	for n := r.Count(minLazySlotBytes); n > 0 && r.Err() == nil; n-- {
		var ls LazySlot
		ls.Addr = r.U64()
		ls.Symbol = r.Str()
		ls.Index = r.U32()
		f.LazySlots = append(f.LazySlots, ls)
	}
	for n := r.Count(minExportBytes); n > 0 && r.Err() == nil; n-- {
		var e Export
		e.Name = r.Str()
		e.Addr = r.U64()
		f.Exports = append(f.Exports, e)
	}
	nsym := r.Count(minSymBytes)
	if nsym > 0 {
		f.Syms = make(map[string]uint64, nsym)
	}
	for ; nsym > 0 && r.Err() == nil; nsym-- {
		name := r.Str()
		f.Syms[name] = r.U64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("image: decode exec: %w", err)
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes", r.Rest())
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
