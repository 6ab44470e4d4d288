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
	"sync"

	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/obj"
	"omos/internal/osim"
	"omos/internal/vm"
)

// Workers bounds the per-fragment fan-out of the symbol-binding and
// relocation passes.  It is a fixed default rather than GOMAXPROCS so
// links behave identically on every machine; 1 restores the fully
// serial passes.  Output is byte-identical at any setting: fragments
// touch disjoint byte ranges and all per-fragment results are merged
// in view order.
var Workers = 4

// forEachFragment applies fn to every fragment index, fanning
// contiguous chunks across up to Workers goroutines.  fn must only
// touch state owned by its index.
func forEachFragment(n int, fn func(i int)) {
	workers := Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

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

// placement records where one fragment landed.  It lives only for the
// link: a Result keeps no compiled object alive.
type placement struct {
	obj      *obj.Object
	textAddr uint64
	dataAddr uint64
	bssAddr  uint64
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

const fragAlign = 16

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// Link lays out the module and applies relocations.
func Link(m *jigsaw.Module, opts Options) (*Result, error) {
	if opts.TextBase%osim.PageSize != 0 || opts.DataBase%osim.PageSize != 0 {
		return nil, fmt.Errorf("link %s: unaligned segment base (text=%#x data=%#x)",
			opts.Name, opts.TextBase, opts.DataBase)
	}
	views := m.LinkViews()

	// Pass 1: gather GOT-needing symbols (in deterministic order) so
	// the GOT can sit at the front of the data segment.
	gotOrder := []string{}
	gotSeen := map[string]bool{}
	for _, lv := range views {
		for _, r := range lv.Obj.Relocs {
			if r.Kind != obj.RelGotSlot {
				continue
			}
			ext := lv.RefExt[r.Symbol]
			if !gotSeen[ext] {
				gotSeen[ext] = true
				gotOrder = append(gotOrder, strings.Clone(ext))
			}
		}
	}

	// Pass 2: place fragments.
	res := &Result{
		GotSlots: make(map[string]uint64, len(gotOrder)),
		TextBase: opts.TextBase,
		DataBase: opts.DataBase,
	}
	gotSize := uint64(len(gotOrder)) * 8
	if gotSize > 0 {
		res.GotBase = opts.DataBase
		res.GotSize = gotSize
		for i, name := range gotOrder {
			res.GotSlots[name] = opts.DataBase + uint64(i)*8
		}
	}
	textCur := opts.TextBase
	dataCur := opts.DataBase + gotSize
	placements := make([]placement, 0, len(views))
	var textBuf, dataBuf []byte
	emitText := func(b []byte) {
		textBuf = append(textBuf, b...)
	}
	for _, lv := range views {
		textCur = alignUp(textCur, fragAlign)
		dataCur = alignUp(dataCur, 8)
		if pad := textCur - opts.TextBase - uint64(len(textBuf)); pad > 0 {
			textBuf = append(textBuf, make([]byte, pad)...)
		}
		if pad := dataCur - opts.DataBase - gotSize - uint64(len(dataBuf)); pad > 0 {
			dataBuf = append(dataBuf, make([]byte, pad)...)
		}
		placements = append(placements, placement{obj: lv.Obj, textAddr: textCur, dataAddr: dataCur})
		res.Records += lv.Obj.RecordCount()
		emitText(lv.Obj.Text)
		dataBuf = append(dataBuf, lv.Obj.Data...)
		textCur += uint64(len(lv.Obj.Text))
		dataCur += uint64(len(lv.Obj.Data))
	}
	// BSS: after all initialized data, 8-aligned runs per fragment.
	bssCur := alignUp(dataCur, 8)
	bssStart := bssCur
	for i := range placements {
		pl := &placements[i]
		bssCur = alignUp(bssCur, 8)
		pl.bssAddr = bssCur
		bssCur += pl.obj.BSSSize
	}

	// Pass 3: bind symbol addresses.  Each fragment's raw symbol
	// addresses and alias resolutions depend only on its own placement,
	// so fragments bind concurrently; the cross-fragment work —
	// duplicate detection and first-write-wins insertion into the
	// shared tables — happens in a serial merge in view order, so the
	// outcome (including which duplicate is reported) is exactly the
	// serial pass's.
	symAddr := func(pl *placement, s *obj.Symbol) uint64 {
		switch s.Section {
		case obj.SecText:
			return pl.textAddr + s.Offset
		case obj.SecData:
			return pl.dataAddr + s.Offset
		default:
			return pl.bssAddr + s.Offset
		}
	}
	type symBind struct {
		ext   string
		addr  uint64
		size  uint64
		kind  obj.SymKind
		sec   byte // SegText or SegData: which segment the symbol lives in
		local bool
	}
	secOf := func(s obj.SectionKind) byte {
		if s == obj.SecText {
			return SegText
		}
		return SegData
	}
	type fragSyms struct {
		binds []symBind
		err   error
	}
	frags := make([]fragSyms, len(views))
	forEachFragment(len(views), func(vi int) {
		lv := views[vi]
		pl := &placements[vi]
		f := &frags[vi]
		nsyms := len(lv.Obj.Syms)
		rawAddr := make(map[string]uint64, nsyms)
		rawSize := make(map[string]uint64, nsyms)
		rawKind := make(map[string]obj.SymKind, nsyms)
		rawSec := make(map[string]byte, nsyms)
		f.binds = make([]symBind, 0, len(lv.Defs)+len(lv.Aliases))
		for i := range lv.Obj.Syms {
			s := &lv.Obj.Syms[i]
			if s.Defined {
				rawAddr[s.Name] = symAddr(pl, s)
				rawSize[s.Name] = s.Size
				rawKind[s.Name] = s.Kind
				rawSec[s.Name] = secOf(s.Section)
			}
		}
		for _, d := range lv.Defs {
			if d.Deleted {
				continue
			}
			f.binds = append(f.binds, symBind{
				ext: d.Ext, addr: rawAddr[d.Raw],
				size: rawSize[d.Raw], kind: rawKind[d.Raw],
				sec: rawSec[d.Raw], local: d.Local,
			})
		}
		for _, a := range lv.Aliases {
			addr, ok := rawAddr[a.TargetRaw]
			if !ok {
				f.err = fmt.Errorf("link %s: alias %s targets undefined %s", opts.Name, a.Ext, a.TargetRaw)
				return
			}
			f.binds = append(f.binds, symBind{
				ext: a.Ext, addr: addr,
				size: rawSize[a.TargetRaw], kind: rawKind[a.TargetRaw],
				sec: rawSec[a.TargetRaw], local: a.Local,
			})
		}
	})
	// all binds every name, module-local ones included, to its address
	// and segment: pass 4 resolves references and classifies absolute
	// patch values with it, and it dies with the link.  The exported
	// names go to the Result's tables, sized to them.  Each is cloned
	// once, as a GOT slot's name is in pass 1: the names a module
	// carries are substrings of its objects' source (a compiled
	// function's assembly text), and the Result's tables outlive the
	// link in every cached image, so sharing them would keep all of
	// that text alive.
	totalDefs, exported := 0, 0
	for vi := range frags {
		for _, b := range frags[vi].binds {
			totalDefs++
			if !b.local {
				exported++
			}
		}
	}
	type boundSym struct {
		addr uint64
		seg  byte
	}
	all := make(map[string]boundSym, totalDefs)
	syms := make(map[string]uint64, exported)
	res.Exports = make(map[string]Export, exported)
	for vi := range frags {
		f := &frags[vi]
		if f.err != nil {
			return nil, f.err
		}
		for _, b := range f.binds {
			if prev, dup := all[b.ext]; dup && prev.addr != b.addr {
				return nil, fmt.Errorf("link %s: multiple definitions of %s", opts.Name, b.ext)
			}
			all[b.ext] = boundSym{b.addr, b.sec}
			if !b.local {
				ext := strings.Clone(b.ext)
				syms[ext] = b.addr
				res.Exports[ext] = Export{Size: b.size, Kind: b.kind, Seg: b.sec}
			}
		}
	}

	// Pass 4: apply relocations.  Every relocation site lies inside its
	// own fragment's text or data range, so fragments patch the shared
	// buffers concurrently without overlap; the symbol tables they read
	// are frozen after pass 3.  Per-fragment AbsPatches, Unresolved,
	// and counters accumulate locally and are concatenated in view
	// order, making the output byte-identical to the serial pass.
	type fragRelocs struct {
		absPatches  []AbsPatch
		relPatches  []RelPatch
		unresolved  []Unresolved
		numRelocs   int
		externBinds int
		err         error
	}
	rfrags := make([]fragRelocs, len(views))
	forEachFragment(len(views), func(vi int) {
		lv := views[vi]
		pl := &placements[vi]
		f := &rfrags[vi]
		patch64 := func(site uint64, val uint64, valSeg byte) error {
			var seg []byte
			var base uint64
			if site >= opts.TextBase && site < opts.TextBase+uint64(len(textBuf)) {
				seg, base = textBuf, opts.TextBase
			} else {
				seg, base = dataBuf, opts.DataBase+gotSize
			}
			off := site - base
			if off+8 > uint64(len(seg)) {
				return fmt.Errorf("link %s: patch site %#x out of range", opts.Name, site)
			}
			binary.LittleEndian.PutUint64(seg[off:], val)
			f.absPatches = append(f.absPatches, AbsPatch{Site: site, Value: val, Seg: valSeg})
			return nil
		}
		for _, r := range lv.Obj.Relocs {
			f.numRelocs++
			ext := lv.RefExt[r.Symbol]
			sym, bound := all[ext]
			target := sym.addr
			extern := false
			if !bound && opts.Externs != nil {
				if v, ok := opts.Externs[ext]; ok {
					target, bound = v, true
					extern = true
					f.externBinds++
				}
			}
			// targetSeg classifies where the bound target lives, which
			// decides how a stored value or cross-segment displacement
			// moves when the image is rebased.
			targetSeg := SegExtern
			if bound && !extern {
				targetSeg = sym.seg
			}
			var site uint64
			switch r.Section {
			case obj.SecText:
				site = pl.textAddr + r.Offset
			case obj.SecData:
				site = pl.dataAddr + r.Offset
			default:
				f.err = fmt.Errorf("link %s: relocation in bss", opts.Name)
				return
			}
			instr := site - vm.ImmOffset
			switch r.Kind {
			case obj.RelAbs64:
				if !bound {
					if !opts.AllowUndefined {
						f.err = fmt.Errorf("link %s: undefined symbol %s (from %s)", opts.Name, ext, lv.Obj.Name)
						return
					}
					f.unresolved = append(f.unresolved, Unresolved{
						Site: site, InstrAddr: instr, Kind: r.Kind, Symbol: ext, Addend: r.Addend,
					})
					continue
				}
				if err := patch64(site, target+uint64(r.Addend), targetSeg); err != nil {
					f.err = err
					return
				}
			case obj.RelPC64:
				if !bound {
					if !opts.AllowUndefined {
						f.err = fmt.Errorf("link %s: undefined symbol %s (from %s)", opts.Name, ext, lv.Obj.Name)
						return
					}
					f.unresolved = append(f.unresolved, Unresolved{
						Site: site, InstrAddr: instr, Kind: r.Kind, Symbol: ext, Addend: r.Addend,
					})
					continue
				}
				// PC-relative: no AbsPatch (position independent under a
				// uniform slide).  A target outside the text segment
				// makes the displacement depend on the inter-segment
				// distance, so record the site for Rebase to adjust.
				off := site - (opts.TextBase)
				if r.Section == obj.SecData {
					f.err = fmt.Errorf("link %s: pc-relative relocation in data", opts.Name)
					return
				}
				binary.LittleEndian.PutUint64(textBuf[off:], target+uint64(r.Addend)-instr)
				if targetSeg != SegText {
					f.relPatches = append(f.relPatches, RelPatch{Site: site, Seg: targetSeg})
				}
			case obj.RelGotSlot:
				slot := res.GotSlots[ext]
				// The instruction addresses its slot pc-relatively,
				// which is always resolvable.  The slot lives in the
				// data segment, so the displacement shifts whenever
				// text and data slide by different deltas.
				off := site - opts.TextBase
				if r.Section != obj.SecText {
					f.err = fmt.Errorf("link %s: got relocation outside text", opts.Name)
					return
				}
				binary.LittleEndian.PutUint64(textBuf[off:], slot-instr)
				f.relPatches = append(f.relPatches, RelPatch{Site: site, Seg: SegData})
				if bound {
					// Slot contents resolved statically; the final
					// GOT bytes are rebuilt from AbsPatches below.
					f.absPatches = append(f.absPatches, AbsPatch{Site: slot, Value: target, Seg: targetSeg})
				} else {
					if !opts.AllowUndefined {
						f.err = fmt.Errorf("link %s: undefined symbol %s (from %s)", opts.Name, ext, lv.Obj.Name)
						return
					}
					f.unresolved = append(f.unresolved, Unresolved{
						Site: site, InstrAddr: instr, Kind: r.Kind, Symbol: ext,
						Addend: r.Addend, GotSlot: slot,
					})
				}
			}
		}
	})
	for vi := range rfrags {
		f := &rfrags[vi]
		if f.err != nil {
			return nil, f.err
		}
		res.AbsPatches = append(res.AbsPatches, f.absPatches...)
		res.RelPatches = append(res.RelPatches, f.relPatches...)
		res.Unresolved = append(res.Unresolved, f.unresolved...)
		res.NumRelocs += f.numRelocs
		res.ExternBinds += f.externBinds
	}

	// Assemble the image.  The GOT occupies the front of the data
	// segment; splice it in now that slots are filled.
	res.TextSize = uint64(len(textBuf))
	res.DataSize = gotSize + uint64(len(dataBuf))
	res.BSSSize = bssCur - bssStart
	gotBytes := make([]byte, gotSize)
	for _, p := range res.AbsPatches {
		if p.Site >= opts.DataBase && p.Site < opts.DataBase+gotSize {
			binary.LittleEndian.PutUint64(gotBytes[p.Site-opts.DataBase:], p.Value)
		}
	}
	dataAll := append(gotBytes, dataBuf...)
	dataMem := alignUp(bssCur-opts.DataBase, 8)

	img := &image.Image{
		Name: opts.Name,
		Syms: syms,
	}
	if len(textBuf) > 0 {
		img.Segments = append(img.Segments, image.Segment{
			Name: "text", Addr: opts.TextBase, Data: textBuf,
			MemSize: osim.PageAlign(uint64(len(textBuf))),
			Perm:    image.PermR | image.PermX,
		})
	}
	if len(dataAll) > 0 || dataMem > 0 {
		img.Segments = append(img.Segments, image.Segment{
			Name: "data", Addr: opts.DataBase, Data: dataAll,
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
