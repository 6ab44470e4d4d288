// Package link lays out jigsaw modules and applies relocations,
// producing mappable images.
//
// Linking here is the final, cacheable step of OMOS instantiation:
// once a module has been placed at constraint-solved addresses and
// relocated, the resulting image can be mapped into any number of
// client address spaces with no further binding work — the core speed
// claim of the paper.  The Result also reports everything the
// baseline dynamic-linking path needs to *defer* binding instead:
// unresolved references, GOT slots, and the set of absolute patches
// that must be rebased if the image moves.
package link

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/obj"
	"omos/internal/osim"
	"omos/internal/vm"
)

// Options control a link.
type Options struct {
	// Name labels the output image.
	Name string
	// TextBase and DataBase are the segment load addresses; both must
	// be page aligned.
	TextBase uint64
	DataBase uint64
	// Entry, if non-empty, names the symbol whose address becomes the
	// image entry point.
	Entry string
	// AllowUndefined permits unresolved references, recording them in
	// Result.Unresolved for a dynamic linker to satisfy at load time.
	AllowUndefined bool
	// Externs supplies pre-bound external symbols (the exported
	// addresses of separately placed library images).  References that
	// the module itself cannot resolve bind here before being
	// considered undefined.  This is how an OMOS client links against
	// a self-contained shared library: all resolution happens now, at
	// image construction, and never again (§4.1).
	Externs map[string]uint64
}

// Unresolved records a reference the link could not bind.
type Unresolved struct {
	// Site is the VA of the 8-byte patch site (for abs/pc relocs).
	Site uint64
	// InstrAddr is the VA of the instruction containing the site
	// (meaningful for text relocs).
	InstrAddr uint64
	Kind      obj.RelocKind
	Symbol    string
	Addend    int64
	// GotSlot is the VA of the allocated GOT slot when Kind is
	// RelGotSlot (the instruction itself is already patched to address
	// the slot; only the slot's contents await the symbol).
	GotSlot uint64
}

// Segment classes for AbsPatch.Seg and RelPatch.Seg: which region the
// patched value's *target* lives in, which decides how the value moves
// when the image is rebased (SegExtern targets are pre-bound library
// addresses and do not move with this image).
const (
	SegText   = byte('T')
	SegData   = byte('D')
	SegExtern = byte('X')
)

// AbsPatch records an absolute address stored into the image at link
// time.  If the image is later loaded at a different base, each such
// site must be rebased: the site slides with its containing segment,
// and the stored value slides with the segment its target lives in
// (Seg; SegExtern values are fixed).  This is exactly the delta the
// Rebase fast path applies — O(patch sites), not O(relocations).
type AbsPatch struct {
	Site  uint64
	Value uint64
	// Seg classifies the value's target: SegText/SegData for
	// module-internal addresses, SegExtern for pre-bound externals.
	Seg byte
}

// RelPatch records a PC-relative site in the text segment whose target
// lies outside the text segment: the stored displacement depends on
// the distance between the segments, so a rebase that slides text and
// data by different deltas (or slides text away from fixed externals)
// must adjust it.  Sites whose target is in text are never recorded —
// their displacement is invariant under any uniform text slide.
type RelPatch struct {
	// Site is the VA of the 8-byte displacement.
	Site uint64
	// Seg is the target's class: SegData (slot/data target inside the
	// module) or SegExtern (pre-bound external target).
	Seg byte
}

// Export describes one exported definition beyond its address: what
// a client binding to it by name, a symbolizer, or Rebase needs.
type Export struct {
	Size uint64
	Kind obj.SymKind
	// Seg is SegText or SegData: the segment the definition lives in,
	// hence which slide delta its address follows under Rebase.
	Seg byte
}

// Result is the output of Link.  Its one symbol table is Image.Syms,
// the exported names' addresses; Exports holds the rest of what is
// known about exactly those names.  Module-local names live only for
// the link that binds them.
type Result struct {
	Image   *image.Image
	Exports map[string]Export
	// EntrySeg is the entry symbol's segment class (0 when no entry).
	EntrySeg byte
	// Unresolved lists deferred references (empty unless
	// Options.AllowUndefined).
	Unresolved []Unresolved
	// GotBase/GotSize describe the synthesized GOT (zero if no
	// GOT-relative relocations were present); GotSlots maps symbol
	// names to slot VAs.
	GotBase  uint64
	GotSize  uint64
	GotSlots map[string]uint64
	// AbsPatches lists every absolute patch applied, for rebasing.
	AbsPatches []AbsPatch
	// RelPatches lists the PC-relative text sites whose targets lie
	// outside the text segment (GOT-slot addressing, cross-segment
	// leapc/callpc); Rebase adjusts exactly these when the segment
	// deltas differ.
	RelPatches []RelPatch
	// NumRelocs counts relocations processed — the work OMOS caches
	// and traditional schemes repeat.
	NumRelocs int
	// ExternBinds counts references satisfied from Options.Externs.
	ExternBinds int
	// Records counts the object records linked (obj.Object.RecordCount
	// summed over the fragments), the other half of the build's size.
	Records int
	// TextBase and DataBase record the segment bases this result was
	// linked at (Rebase derives its slide deltas from them).
	TextBase uint64
	DataBase uint64
	TextSize uint64
	DataSize uint64
	BSSSize  uint64
	// Rebased is non-nil when this result was derived by Rebase rather
	// than a fresh Link, and reports the delta-apply work done.
	Rebased *RebaseInfo
}

// Link lays out the module and applies relocations, one fragment at a
// time in view order.
func Link(m *jigsaw.Module, opts Options) (*Result, error) {
	if opts.TextBase%osim.PageSize != 0 || opts.DataBase%osim.PageSize != 0 {
		return nil, fmt.Errorf("link %s: unaligned segment base (text=%#x data=%#x)",
			opts.Name, opts.TextBase, opts.DataBase)
	}
	l := layoutOf(m)
	gotSize := l.gotSize()
	res := &Result{
		GotSlots: make(map[string]uint64, len(l.got)),
		TextBase: opts.TextBase,
		DataBase: opts.DataBase,
		TextSize: l.size.text,
		DataSize: gotSize + l.size.data,
		BSSSize:  l.size.bss,
	}
	if gotSize > 0 {
		res.GotBase, res.GotSize = opts.DataBase, gotSize
	}
	// Names are cloned before they enter the Result's tables: the names
	// a module carries are substrings of its objects' source (a compiled
	// function's assembly text), and the tables outlive the link in
	// every cached image, so sharing them would keep all of that text
	// alive.
	for i, name := range l.got {
		res.GotSlots[strings.Clone(name)] = opts.DataBase + uint64(i)*8
	}

	// Place the fragments.  The GOT occupies the front of the data
	// segment; frag is the data past it.
	start := offsets{opts.TextBase, opts.DataBase + gotSize, opts.DataBase + l.bssStart()}
	text := make([]byte, l.size.text)
	data := make([]byte, gotSize+l.size.data)
	frag := data[gotSize:]
	for i := range l.views {
		o := l.views[i].Obj
		copy(text[l.at[i].text:], o.Text)
		copy(frag[l.at[i].data:], o.Data)
		res.Records += o.RecordCount()
	}

	// Bind every name, module-local ones included, to its address and
	// segment: all resolves references below and dies with the link.
	// The exported names go to the Result's tables, sized to them, each
	// cloned once.
	nall, nexported := 0, 0
	for i := range l.views {
		for _, d := range l.views[i].Defs {
			if !d.Deleted {
				nall++
				if !d.Local {
					nexported++
				}
			}
		}
		for _, a := range l.views[i].Aliases {
			nall++
			if !a.Local {
				nexported++
			}
		}
	}
	type boundSym struct {
		addr uint64
		seg  byte // SegText or SegData
	}
	all := make(map[string]boundSym, nall)
	syms := make(map[string]uint64, nexported)
	res.Exports = make(map[string]Export, nexported)
	who := "link " + opts.Name
	for i := range l.views {
		err := walkDefs(&l.views[i], who, func(ext string, local bool, s *obj.Symbol) error {
			b := boundSym{l.addr(start, i, s.Section, s.Offset), SegData}
			if s.Section == obj.SecText {
				b.seg = SegText
			}
			if prev, dup := all[ext]; dup && prev.addr != b.addr {
				return fmt.Errorf("link %s: multiple definitions of %s", opts.Name, ext)
			}
			all[ext] = b
			if !local {
				name := strings.Clone(ext)
				syms[name] = b.addr
				res.Exports[name] = Export{Size: s.Size, Kind: s.Kind, Seg: b.seg}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Apply relocations.
	for i := range l.views {
		lv := &l.views[i]
		for _, r := range lv.Obj.Relocs {
			res.NumRelocs++
			ext := lv.RefExt[r.Symbol]
			// targetSeg classifies where the bound target lives, which
			// decides how a stored value or cross-segment displacement
			// moves when the image is rebased.
			sym, bound := all[ext]
			target, targetSeg := sym.addr, sym.seg
			if !bound && opts.Externs != nil {
				if v, ok := opts.Externs[ext]; ok {
					target, targetSeg, bound = v, SegExtern, true
					res.ExternBinds++
				}
			}
			if r.Section == obj.SecBSS {
				return nil, fmt.Errorf("link %s: relocation in bss", opts.Name)
			}
			site := l.addr(start, i, r.Section, r.Offset)
			instr := site - vm.ImmOffset
			// unbound defers the reference to a dynamic linker, when
			// the options allow one.
			unbound := func(slot uint64) error {
				if !opts.AllowUndefined {
					return fmt.Errorf("link %s: undefined symbol %s (from %s)", opts.Name, ext, lv.Obj.Name)
				}
				res.Unresolved = append(res.Unresolved, Unresolved{
					Site: site, InstrAddr: instr, Kind: r.Kind, Symbol: ext,
					Addend: r.Addend, GotSlot: slot,
				})
				return nil
			}
			var err error
			switch r.Kind {
			case obj.RelAbs64:
				if !bound {
					err = unbound(0)
					break
				}
				buf, base := frag, start.data
				if site >= opts.TextBase && site < opts.TextBase+uint64(len(text)) {
					buf, base = text, opts.TextBase
				}
				if site-base+8 > uint64(len(buf)) {
					return nil, fmt.Errorf("link %s: patch site %#x out of range", opts.Name, site)
				}
				val := target + uint64(r.Addend)
				binary.LittleEndian.PutUint64(buf[site-base:], val)
				res.AbsPatches = append(res.AbsPatches, AbsPatch{Site: site, Value: val, Seg: targetSeg})
			case obj.RelPC64:
				if !bound {
					err = unbound(0)
					break
				}
				// PC-relative: no AbsPatch (position independent under a
				// uniform slide).  A target outside the text segment
				// makes the displacement depend on the inter-segment
				// distance, so record the site for Rebase to adjust.
				if r.Section == obj.SecData {
					return nil, fmt.Errorf("link %s: pc-relative relocation in data", opts.Name)
				}
				binary.LittleEndian.PutUint64(text[site-opts.TextBase:], target+uint64(r.Addend)-instr)
				if targetSeg != SegText {
					res.RelPatches = append(res.RelPatches, RelPatch{Site: site, Seg: targetSeg})
				}
			case obj.RelGotSlot:
				// The instruction addresses its slot pc-relatively,
				// which is always resolvable.  The slot lives in the
				// data segment, so the displacement shifts whenever
				// text and data slide by different deltas.
				if r.Section != obj.SecText {
					return nil, fmt.Errorf("link %s: got relocation outside text", opts.Name)
				}
				slot := res.GotSlots[ext]
				binary.LittleEndian.PutUint64(text[site-opts.TextBase:], slot-instr)
				res.RelPatches = append(res.RelPatches, RelPatch{Site: site, Seg: SegData})
				if !bound {
					err = unbound(slot)
					break
				}
				// Slot contents resolved statically.
				binary.LittleEndian.PutUint64(data[slot-opts.DataBase:], target)
				res.AbsPatches = append(res.AbsPatches, AbsPatch{Site: slot, Value: target, Seg: targetSeg})
			}
			if err != nil {
				return nil, err
			}
		}
	}

	// Assemble the image.
	img := &image.Image{
		Name: opts.Name,
		Syms: syms,
	}
	if len(text) > 0 {
		img.Segments = append(img.Segments, image.Segment{
			Name: "text", Addr: opts.TextBase, Data: text,
			MemSize: osim.PageAlign(uint64(len(text))),
			Perm:    image.PermR | image.PermX,
		})
	}
	if dataMem := l.dataMem(); len(data) > 0 || dataMem > 0 {
		img.Segments = append(img.Segments, image.Segment{
			Name: "data", Addr: opts.DataBase, Data: data,
			MemSize: osim.PageAlign(dataMem),
			Perm:    image.PermR | image.PermW,
		})
	}
	if opts.Entry != "" {
		e, ok := all[opts.Entry]
		if !ok {
			return nil, fmt.Errorf("link %s: entry symbol %q undefined", opts.Name, opts.Entry)
		}
		img.Entry = e.addr
		res.EntrySeg = e.seg
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	res.Image = img
	sort.Slice(res.Unresolved, func(i, j int) bool { return res.Unresolved[i].Site < res.Unresolved[j].Site })
	return res, nil
}
