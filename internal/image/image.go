// Package image defines linked, mappable executable images and the
// on-disk executable file format used by the simulated OS.
//
// An Image is the output of the link step: a set of placed segments
// plus an entry point and a bound symbol table.  The OMOS server
// caches Images (materialized into shared physical frames); the
// baseline path serializes them into ExecFiles that the native exec
// code must parse on every invocation — precisely the work the paper's
// server avoids by caching.
package image

import (
	"fmt"
	"sort"
)

// Perm is a segment permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

// String renders e.g. "r-x".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Segment is a contiguous placed region.  Bytes beyond len(Data) up to
// MemSize are zero-initialized (bss).
type Segment struct {
	Name    string
	Addr    uint64
	Data    []byte
	MemSize uint64 // total size; >= len(Data)
	Perm    Perm
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Addr + s.MemSize }

// Image is a fully linked, mappable program or library.
type Image struct {
	Name     string
	Entry    uint64
	Segments []Segment
	// Syms maps bound global symbol names to absolute addresses.  The
	// server uses it to answer dynamic-load symbol queries and to
	// build partial-image hash tables.
	Syms map[string]uint64
}

// Validate checks segment sanity: MemSize covers Data, no overlaps.
func (im *Image) Validate() error {
	segs := make([]Segment, len(im.Segments))
	copy(segs, im.Segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Addr < segs[j].Addr })
	for i := range segs {
		s := &segs[i]
		if uint64(len(s.Data)) > s.MemSize {
			return fmt.Errorf("image %s: segment %s: data %d > memsize %d",
				im.Name, s.Name, len(s.Data), s.MemSize)
		}
		if s.Addr+s.MemSize < s.Addr {
			return fmt.Errorf("image %s: segment %s wraps address space", im.Name, s.Name)
		}
		if i > 0 && segs[i-1].End() > s.Addr {
			return fmt.Errorf("image %s: segments %s and %s overlap",
				im.Name, segs[i-1].Name, s.Name)
		}
	}
	return nil
}

// FindSegment returns the segment containing addr, or nil.
func (im *Image) FindSegment(addr uint64) *Segment {
	for i := range im.Segments {
		s := &im.Segments[i]
		if addr >= s.Addr && addr < s.End() {
			return s
		}
	}
	return nil
}

// DynRelocKind classifies a load-time relocation in an ExecFile.
type DynRelocKind uint8

// Dynamic relocation kinds.
const (
	// DynAbs: look up Symbol in the link namespace (this file's own
	// exports plus all needed libraries') and store its address plus
	// Addend at Addr.
	DynAbs DynRelocKind = iota
	// DynRelative: store loadBase + Addend at Addr (no symbol lookup).
	// Used to initialize GOT entries for module-internal symbols when
	// the module may be rebased.
	DynRelative
)

// DynReloc is a relocation the dynamic linker applies at load time.
// Addr is a virtual address within a writable segment (relative to the
// file's preferred base; rebased by the load delta).
type DynReloc struct {
	Addr   uint64
	Kind   DynRelocKind
	Symbol string
	Addend int64
}

// LazySlot describes a GOT slot subject to lazy function binding: the
// dynamic linker initializes the slot to the lazy resolver and patches
// it with Symbol's address on first call.
type LazySlot struct {
	Addr   uint64 // slot virtual address (preferred-base relative)
	Symbol string
	Index  uint32 // index loaded into RegIdx by the PLT entry
}

// Export is an exported symbol of a shared object.
type Export struct {
	Name string
	Addr uint64 // preferred-base relative
}

// ExecFile is the on-disk executable or shared library consumed by
// the native exec path and the baseline dynamic linker.
type ExecFile struct {
	Image
	// Shared marks a shared library (mapped by the dynamic linker, not
	// executed directly).
	Shared bool
	// PIC marks the file as position independent: it may be loaded at
	// any base; all dynamic reloc/slot/export addresses are rebased by
	// the load delta.
	PIC bool
	// Needed lists library file paths this file depends on, in link
	// order.
	Needed []string
	// DynRelocs are eager load-time relocations (data references).
	DynRelocs []DynReloc
	// LazySlots are lazily-bound function GOT slots.
	LazySlots []LazySlot
	// Exports is the dynamic symbol table.
	Exports []Export
}

// RecordCount returns the number of structural records a loader must
// parse; the osim cost model charges native exec proportionally.
func (f *ExecFile) RecordCount() int {
	n := 2 + len(f.Segments) + len(f.Needed) + len(f.DynRelocs) + len(f.LazySlots) + len(f.Exports)
	return n
}

// FindExport returns the address of a dynamic symbol and whether it
// exists, adjusted by delta (the load-base displacement).
func (f *ExecFile) FindExport(name string, delta uint64) (uint64, bool) {
	for i := range f.Exports {
		if f.Exports[i].Name == name {
			return f.Exports[i].Addr + delta, true
		}
	}
	return 0, false
}
