package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"omos/internal/constraint"
	"omos/internal/image"
	"omos/internal/mgraph"
	"omos/internal/obj"
	"omos/internal/osim"
)

// FNV-1a 64 parameters; the table layout and this hash are part of the
// partial-image ABI shared with the loader-generated stub code.
const (
	FNVOffset = uint64(0xcbf29ce484222325)
	FNVPrime  = uint64(0x100000001b3)
)

// HashName computes the export-table hash of a symbol name.
func HashName(name string) uint64 {
	h := FNVOffset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= FNVPrime
	}
	return h
}

// ContentHashOf returns the content digest of a namespace entry,
// covering its transitive references (the version identity used by
// partial-image stub validation).
func (s *Server) ContentHashOf(path string) (string, error) {
	return evalCtx{s: s}.ContentHash(path)
}

// EvalProgram evaluates a program meta-object without linking it,
// returning its value (module + library deps).  The loader package
// uses this to build partial-image executables (§4.2).
func (s *Server) EvalProgram(name string) (*mgraph.Value, *mgraph.Meta, error) {
	c := evalCtx{s: s}
	meta, err := c.LookupMeta(name)
	if err != nil {
		return nil, nil, err
	}
	if meta == nil || meta.IsLibrary {
		return nil, nil, fmt.Errorf("server: %s is not a program meta-object", name)
	}
	v, err := meta.Root.Eval(c)
	if err != nil {
		return nil, nil, err
	}
	return v, meta, nil
}

// InstantiateLib resolves one library dependency to an instance (the
// "lib-dynamic-impl" specialization: the implementation that will be
// loaded and shared at run time).
func (s *Server) InstantiateLib(dep mgraph.LibDep, p *osim.Process) (*Instance, error) {
	// The implementation of a dynamic library is a normal
	// self-contained image; only the client's access mechanism
	// differs.
	impl := dep
	impl.Spec.Kind = "lib-static"
	return s.libraryImage(context.Background(), impl, asCharger(p))
}

// ExportTable returns (building and caching on first use) the
// instance's function hash table: the structure a partial-image stub
// receives from DYNLOAD and probes to bind entry points.
//
// Layout (all u64, little endian):
//
//	[0]          nslots (power of two)
//	[8+16i+0]    hash of symbol name (0 = empty slot)
//	[8+16i+8]    absolute bound address
//
// Only function exports are included: the paper notes shared variables
// are the scheme's fundamental limitation, so data never appears here.
func (s *Server) ExportTable(inst *Instance) (*osim.FrameSeg, error) {
	s.cacheMu.RLock()
	if inst.Table != nil {
		s.cacheMu.RUnlock()
		return inst.Table, nil
	}
	s.cacheMu.RUnlock()

	var funcs []string
	for name, kind := range inst.Res.SymKinds {
		if kind == obj.SymFunc {
			funcs = append(funcs, name)
		}
	}
	sort.Strings(funcs)
	nslots := uint64(2)
	for nslots < uint64(len(funcs))*2 {
		nslots *= 2
	}
	buf := make([]byte, 8+16*nslots)
	binary.LittleEndian.PutUint64(buf, nslots)
	for _, name := range funcs {
		h := HashName(name)
		if h == 0 {
			h = 1 // reserve 0 for empty slots
		}
		idx := h & (nslots - 1)
		for {
			off := 8 + 16*idx
			if binary.LittleEndian.Uint64(buf[off:]) == 0 {
				binary.LittleEndian.PutUint64(buf[off:], h)
				binary.LittleEndian.PutUint64(buf[off+8:], inst.Res.Image.Syms[name])
				break
			}
			idx = (idx + 1) & (nslots - 1)
		}
	}
	pl, err := s.place(constraint.Request{
		Key:      "table:" + inst.Key,
		TextSize: uint64(len(buf)),
	})
	if err != nil {
		return nil, err
	}
	seg, err := s.kern.FT.MakeFrameSeg(inst.Name+"/table", pl.TextBase, buf,
		uint64(len(buf)), uint8(image.PermR))
	if err != nil {
		return nil, err
	}
	s.cacheMu.Lock()
	if inst.Table != nil {
		// Another builder won the race; keep its table and release ours.
		won := inst.Table
		s.cacheMu.Unlock()
		s.kern.FT.Release(seg)
		return won, nil
	}
	inst.Table = seg
	inst.TableAddr = pl.TextBase
	s.cacheMu.Unlock()
	return seg, nil
}
