package osim

import (
	"errors"
	"fmt"

	"omos/internal/image"
)

// pte is one page-table entry.
type pte struct {
	frame   *Frame
	perm    image.Perm
	touched bool // an instruction has been fetched from this page
}

// AddressSpace is a paged virtual address space.  It implements
// vm.Memory, enforcing page permissions on reads, writes, and fetches.
type AddressSpace struct {
	ft    *FrameTable
	pages map[uint64]pte // keyed by page-aligned virtual address
	// OnTextTouch, if set, is invoked the first time each executable
	// page is fetched from — the demand-paging soft fault that makes
	// code layout matter (the §4.1 reordering experiment).
	OnTextTouch func()
	// TouchedText counts distinct executable pages fetched from.
	TouchedText int
}

// NewAddressSpace returns an empty address space drawing frames from ft.
func NewAddressSpace(ft *FrameTable) *AddressSpace {
	return &AddressSpace{ft: ft, pages: make(map[uint64]pte)}
}

// PageError reports an access to an unmapped or protection-violating
// address.
type PageError struct {
	Addr uint64
	Op   string
}

// Error describes the faulting access.
func (e *PageError) Error() string {
	return fmt.Sprintf("osim: %s fault at %#x", e.Op, e.Addr)
}

// ErrReleased refuses to map a frame segment an eviction already
// released.
var ErrReleased = errors.New("segment released")

// MapShared inserts the segment's frames into the page table, adding
// references, and returns the number of pages mapped.  Pages must not
// already be mapped.
func (as *AddressSpace) MapShared(seg *FrameSeg) (int, error) {
	return as.mapFrames("MapShared", seg, seg.Addr)
}

// MapSharedAt maps the segment's frames at a base other than the one
// they were materialized for.  Used to rebase position-independent
// libraries: the frames are byte-identical at any base, so they stay
// shared across processes that map them at different addresses.
func (as *AddressSpace) MapSharedAt(seg *FrameSeg, addr uint64) (int, error) {
	if addr%PageSize != 0 {
		return 0, fmt.Errorf("osim: MapSharedAt %s: unaligned address %#x", seg.Name, addr)
	}
	return as.mapFrames("MapSharedAt", seg, addr)
}

// mapFrames maps seg's frames at base under the frame table lock, so a
// concurrent Release either happens first (the segment is refused) or
// waits until every frame carries the new mapping's reference.
func (as *AddressSpace) mapFrames(op string, seg *FrameSeg, base uint64) (int, error) {
	ft := as.ft
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if seg.Frames == nil {
		return 0, fmt.Errorf("osim: %s %s: %w", op, seg.Name, ErrReleased)
	}
	for i := range seg.Frames {
		va := base + uint64(i)*PageSize
		if _, dup := as.pages[va]; dup {
			return 0, fmt.Errorf("osim: %s %s: page %#x already mapped", op, seg.Name, va)
		}
	}
	for i, f := range seg.Frames {
		f.refs++
		as.pages[base+uint64(i)*PageSize] = pte{frame: f, perm: image.Perm(seg.Perm)}
	}
	return len(seg.Frames), nil
}

// MapPrivate allocates fresh frames at [addr, addr+memSize), copying
// data into the front and zero-filling the rest.  Returns the number
// of pages that required copying (had file data) and the number that
// were pure zero fill, for cost accounting.
func (as *AddressSpace) MapPrivate(addr uint64, data []byte, memSize uint64, perm image.Perm) (copied, zeroed int, err error) {
	if addr%PageSize != 0 {
		return 0, 0, fmt.Errorf("osim: MapPrivate: unaligned address %#x", addr)
	}
	if memSize < uint64(len(data)) {
		memSize = uint64(len(data))
	}
	npages := int(PageAlign(memSize) / PageSize)
	for i := 0; i < npages; i++ {
		va := addr + uint64(i)*PageSize
		if _, dup := as.pages[va]; dup {
			return copied, zeroed, fmt.Errorf("osim: MapPrivate: page %#x already mapped", va)
		}
		f := as.ft.Alloc()
		lo := i * PageSize
		if lo < len(data) {
			copy(f.Data[:], data[lo:])
			copied++
		} else {
			zeroed++
		}
		as.pages[va] = pte{frame: f, perm: perm}
	}
	return copied, zeroed, nil
}

// Unmap removes n pages starting at addr, dropping frame references.
func (as *AddressSpace) Unmap(addr uint64, npages int) {
	for i := 0; i < npages; i++ {
		va := addr + uint64(i)*PageSize
		if p, ok := as.pages[va]; ok {
			as.ft.Unref(p.frame)
			delete(as.pages, va)
		}
	}
}

// Destroy drops every mapping.
func (as *AddressSpace) Destroy() {
	for va, p := range as.pages {
		as.ft.Unref(p.frame)
		delete(as.pages, va)
	}
}

// Mapped reports whether the page containing addr is mapped.
func (as *AddressSpace) Mapped(addr uint64) bool {
	_, ok := as.pages[addr&^uint64(PageSize-1)]
	return ok
}

// ResidentPages returns the number of mapped pages.
func (as *AddressSpace) ResidentPages() int { return len(as.pages) }

// access walks pages applying fn to each in-page byte range.
func (as *AddressSpace) access(addr uint64, n int, op string, need image.Perm,
	fn func(frameBytes []byte)) error {
	for n > 0 {
		va := addr &^ uint64(PageSize-1)
		p, ok := as.pages[va]
		if !ok || p.perm&need != need {
			return &PageError{Addr: addr, Op: op}
		}
		off := int(addr - va)
		chunk := PageSize - off
		if chunk > n {
			chunk = n
		}
		fn(p.frame.Data[off : off+chunk])
		addr += uint64(chunk)
		n -= chunk
	}
	return nil
}

// Read implements vm.Memory.
func (as *AddressSpace) Read(addr uint64, buf []byte) error {
	out := buf
	return as.access(addr, len(buf), "read", image.PermR, func(b []byte) {
		copy(out, b)
		out = out[len(b):]
	})
}

// Write implements vm.Memory.
func (as *AddressSpace) Write(addr uint64, buf []byte) error {
	in := buf
	return as.access(addr, len(buf), "write", image.PermW, func(b []byte) {
		copy(b, in)
		in = in[len(b):]
	})
}

// Fetch implements vm.Memory, requiring execute permission.
func (as *AddressSpace) Fetch(addr uint64, buf []byte) error {
	va := addr &^ uint64(PageSize-1)
	if p, ok := as.pages[va]; ok && !p.touched && p.perm&image.PermX != 0 {
		p.touched = true
		as.pages[va] = p
		as.TouchedText++
		if as.OnTextTouch != nil {
			as.OnTextTouch()
		}
	}
	out := buf
	return as.access(addr, len(buf), "exec", image.PermX, func(b []byte) {
		copy(out, b)
		out = out[len(b):]
	})
}

// Poke writes bytes ignoring page permissions (kernel/dynamic-linker
// patching of GOT slots in otherwise read-only views, image setup).
func (as *AddressSpace) Poke(addr uint64, buf []byte) error {
	in := buf
	return as.access(addr, len(buf), "poke", 0, func(b []byte) {
		copy(b, in)
		in = in[len(b):]
	})
}

// Peek reads bytes ignoring permissions.
func (as *AddressSpace) Peek(addr uint64, buf []byte) error {
	out := buf
	return as.access(addr, len(buf), "peek", 0, func(b []byte) {
		copy(out, b)
		out = out[len(b):]
	})
}
