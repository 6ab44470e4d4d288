package osim

import (
	"fmt"
	"sync"

	"omos/internal/fault"
)

// Frame is one physical page.  Frames are refcounted by the
// FrameTable so the benchmarks can report how much physical memory is
// shared between processes — the original motivation for shared
// libraries (§2.1).
type Frame struct {
	ID   uint64
	Data [PageSize]byte
	refs int // guarded by the owning FrameTable's mutex
}

// FrameTable is the machine's physical memory allocator.  It is safe
// for concurrent use: the OMOS server materializes and evicts cached
// images from concurrent instantiations, so allocation and refcounts
// are guarded here rather than by the server lock.
type FrameTable struct {
	mu     sync.Mutex
	nextID uint64
	frames map[uint64]*Frame

	// Faults, when non-nil, injects failures into frame
	// materialization (site "osim.frame").  Set once at system
	// construction, before any concurrent use.
	Faults *fault.Set
}

// NewFrameTable returns an empty physical memory.
func NewFrameTable() *FrameTable {
	return &FrameTable{frames: make(map[uint64]*Frame)}
}

// Alloc returns a new zeroed frame with one reference.
func (ft *FrameTable) Alloc() *Frame {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.nextID++
	f := &Frame{ID: ft.nextID, refs: 1}
	ft.frames[f.ID] = f
	return f
}

// Ref adds a reference to f (a new mapping of a shared frame).
func (ft *FrameTable) Ref(f *Frame) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	f.refs++
}

// Unref drops a reference; the frame is freed at zero.
func (ft *FrameTable) Unref(f *Frame) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.unrefLocked(f)
}

func (ft *FrameTable) unrefLocked(f *Frame) {
	f.refs--
	if f.refs < 0 {
		panic(fmt.Sprintf("osim: frame %d refcount underflow", f.ID))
	}
	if f.refs == 0 {
		delete(ft.frames, f.ID)
	}
}

// MemStats summarizes physical memory use.
type MemStats struct {
	// Frames is the number of live physical frames.
	Frames int
	// Mappings is the total number of references (PTEs + cache holds).
	Mappings int
	// SharedFrames counts frames with more than one reference.
	SharedFrames int
	// SharedSavings is the number of frame-sized allocations avoided
	// by sharing: sum over frames of (refs-1).
	SharedSavings int
}

// Bytes returns the resident physical memory in bytes.
func (s MemStats) Bytes() int { return s.Frames * PageSize }

// SavedBytes returns bytes that sharing avoided allocating.
func (s MemStats) SavedBytes() int { return s.SharedSavings * PageSize }

// Stats computes current memory statistics.
func (ft *FrameTable) Stats() MemStats {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var st MemStats
	for _, f := range ft.frames {
		st.Frames++
		st.Mappings += f.refs
		if f.refs > 1 {
			st.SharedFrames++
			st.SharedSavings += f.refs - 1
		}
	}
	return st
}

// FrameSeg is a placed run of shared frames: the materialized form of
// a read-only image segment.  The OMOS server caches these; mapping
// one into a process costs only PTE inserts, no copying — this is the
// cache of "bound and relocated executable images" from the abstract.
type FrameSeg struct {
	Name   string
	Addr   uint64
	Frames []*Frame
	Perm   uint8 // image.Perm bits
}

// MakeFrameSeg materializes data (plus zero fill to memSize) into
// fresh frames at addr.  addr must be page aligned.
func (ft *FrameTable) MakeFrameSeg(name string, addr uint64, data []byte, memSize uint64, perm uint8) (*FrameSeg, error) {
	if addr%PageSize != 0 {
		return nil, fmt.Errorf("osim: segment %s: unaligned address %#x", name, addr)
	}
	if err := ft.Faults.Fire(fault.SiteFrameMake); err != nil {
		return nil, fmt.Errorf("osim: segment %s: %w", name, err)
	}
	if memSize < uint64(len(data)) {
		memSize = uint64(len(data))
	}
	npages := int(PageAlign(memSize) / PageSize)
	seg := &FrameSeg{Name: name, Addr: addr, Perm: perm, Frames: make([]*Frame, npages)}
	for i := 0; i < npages; i++ {
		f := ft.Alloc()
		lo := i * PageSize
		if lo < len(data) {
			copy(f.Data[:], data[lo:])
		}
		seg.Frames[i] = f
	}
	return seg, nil
}

// MakeFrameSegDelta materializes data (plus zero fill to memSize) at
// addr like MakeFrameSeg, but shares physical frames with src for
// every page whose bytes are identical: shared pages get a reference
// to src's frame instead of a fresh allocation.  This is how the
// rebase fast path keeps clean pages physically shared between a
// cached image and its slid variants — only pages a patch site
// dirtied cost new frames.  Returns the segment and the number of
// pages shared.  A nil src degrades to MakeFrameSeg.
func (ft *FrameTable) MakeFrameSegDelta(name string, addr uint64, data []byte, memSize uint64, perm uint8, src *FrameSeg) (*FrameSeg, int, error) {
	if src == nil {
		seg, err := ft.MakeFrameSeg(name, addr, data, memSize, perm)
		return seg, 0, err
	}
	if addr%PageSize != 0 {
		return nil, 0, fmt.Errorf("osim: segment %s: unaligned address %#x", name, addr)
	}
	if err := ft.Faults.Fire(fault.SiteFrameMake); err != nil {
		return nil, 0, fmt.Errorf("osim: segment %s: %w", name, err)
	}
	if memSize < uint64(len(data)) {
		memSize = uint64(len(data))
	}
	npages := int(PageAlign(memSize) / PageSize)
	seg := &FrameSeg{Name: name, Addr: addr, Perm: perm, Frames: make([]*Frame, npages)}
	shared := 0
	var page [PageSize]byte
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for i := 0; i < npages; i++ {
		for j := range page {
			page[j] = 0
		}
		if lo := i * PageSize; lo < len(data) {
			copy(page[:], data[lo:])
		}
		if i < len(src.Frames) {
			// Frame contents are immutable after materialization, so the
			// comparison needs no further synchronization; the refs>0
			// check skips frames a concurrent eviction already freed.
			if sf := src.Frames[i]; sf != nil && sf.refs > 0 && sf.Data == page {
				sf.refs++
				seg.Frames[i] = sf
				shared++
				continue
			}
		}
		ft.nextID++
		f := &Frame{ID: ft.nextID, refs: 1, Data: page}
		ft.frames[f.ID] = f
		seg.Frames[i] = f
	}
	return seg, shared, nil
}

// Release drops the table's references to the segment's frames.  The
// segment is emptied under the table lock, so a concurrent SegBytes
// sees either every frame or none.
func (ft *FrameTable) Release(seg *FrameSeg) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for _, f := range seg.Frames {
		ft.unrefLocked(f)
	}
	seg.Frames = nil
}

// SegInUse reports whether any of the segment's frames carries
// references beyond the owner's own hold — i.e. some live process
// still maps it.  The image-store eviction policy refuses to evict
// such segments.
func (ft *FrameTable) SegInUse(seg *FrameSeg) bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for _, f := range seg.Frames {
		if f != nil && f.refs > 1 {
			return true
		}
	}
	return false
}

// End returns the first address past the segment.
func (s *FrameSeg) End() uint64 { return s.Addr + uint64(len(s.Frames))*PageSize }

// SegBytes returns a copy of the segment's contents (including zero
// fill): the serializable form for the persistent image store, and the
// bytes a rebase slides.  The frames are a cached image's only copy of
// them.  ok is false once the segment was released (an eviction raced
// the reader).
func (ft *FrameTable) SegBytes(seg *FrameSeg) (data []byte, ok bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if seg.Frames == nil {
		return nil, false
	}
	data = make([]byte, len(seg.Frames)*PageSize)
	for i, f := range seg.Frames {
		copy(data[i*PageSize:], f.Data[:])
	}
	return data, true
}
