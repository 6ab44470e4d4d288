// Package dynlink implements the baseline shared-library scheme the
// paper compares against: position-independent libraries with GOT/GOT
// slots for data, PLT stubs with deferred (lazy) function binding, and
// a user-space dynamic linker that re-parses headers and re-applies
// relocations on every program invocation — HP-UX's "-B deferred"
// behaviour (§8.2).
//
// The build half produces executable and shared-object files; the
// runtime half (runtime.go) loads, relocates, and lazily binds them
// inside simulated processes.
package dynlink

import (
	"fmt"
	"sort"
	"strings"

	"omos/internal/asm"
	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/obj"
	"omos/internal/osim"
)

// Symbol-name prefixes for PLT machinery; excluded from dynamic
// exports.
const (
	pltSlotPrefix = "$plt$slot$"
	pltLazyName   = "$plt$lazy"
)

// Preferred link bases.  Executables load here; PIC libraries are
// linked here but rebased by the dynamic linker at load time.
const (
	ExecTextBase = uint64(0x0010_0000)
	ExecDataBase = uint64(0x4000_0000)
	LibLinkBase  = uint64(0x1000_0000)
)

// BuildResult summarizes a produced file for size accounting.
type BuildResult struct {
	Path string
	File *image.ExecFile
	// PLTBytes and GOTBytes measure the dispatch machinery — the
	// memory overhead the paper's §4.1 cites from [11].
	PLTBytes int
	GOTBytes int
	// FileBytes is the encoded file size (for link-time I/O costs).
	FileBytes int
	// NumRelocs is the count of link-time relocations processed and
	// Records the object records parsed — the link-time cost drivers.
	NumRelocs int
	Records   int
}

func recordsOf(m *jigsaw.Module) int {
	n := 0
	for _, o := range m.Objects() {
		n += o.RecordCount()
	}
	return n
}

// genPLT builds the PLT object for a module: one stub per imported
// function plus the shared lazy-resolver tail.  Stub slots live in the
// object's data section and are initialized to the lazy resolver's
// address, so a rebased library needs only DynRelative patching.
func genPLT(funcs []string) (*obj.Object, error) {
	sort.Strings(funcs)
	var sb strings.Builder
	sb.WriteString(".text\n")
	for i, f := range funcs {
		fmt.Fprintf(&sb, `%[1]s:
    movi r11, %[2]d
    leapc r10, =%[3]s%[1]s
    ld r12, [r10]
    jmpr r12
`, f, i, pltSlotPrefix)
	}
	// The lazy tail: SYS resolve reads RegIdx, patches the slot, and
	// leaves the target in RegLnk.
	fmt.Fprintf(&sb, "%s:\n    sys %d\n    jmpr r12\n", pltLazyName, osim.SysResolve)
	sb.WriteString(".data\n")
	for _, f := range funcs {
		fmt.Fprintf(&sb, ".align 8\n%s%s:\n    .quad =%s\n", pltSlotPrefix, f, pltLazyName)
	}
	o, err := asm.Assemble("plt", sb.String())
	if err != nil {
		return nil, fmt.Errorf("dynlink: assembling PLT: %w", err)
	}
	return o, nil
}

// buildLinked links a module (plus a generated PLT for its imported
// functions) and converts the unresolved references and rebase patches
// into the dynamic sections of an ExecFile.  bases maps the final text
// size of the merged module (including the PLT) to the segment bases.
func buildLinked(m *jigsaw.Module, name string, bases func(textSize uint64) (uint64, uint64), entry string, pic bool, needed []string) (*image.ExecFile, *link.Result, int, int, error) {
	// Imported functions are the module's unresolved names that the
	// compiler referenced with pc-relative calls; imported data are
	// GOT-slot references.  Classify by a trial link (the bases used
	// here are irrelevant to classification).
	trial, err := link.Link(m, link.Options{
		Name: name + " (trial)", TextBase: ExecTextBase, DataBase: ExecDataBase,
		AllowUndefined: true,
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	funcSet := map[string]bool{}
	for _, u := range trial.Unresolved {
		switch u.Kind {
		case obj.RelPC64:
			funcSet[u.Symbol] = true
		case obj.RelGotSlot:
			// data import; handled via GOT below
		case obj.RelAbs64:
			return nil, nil, 0, 0, fmt.Errorf("dynlink: %s: absolute reference to undefined %q — module is not position independent", name, u.Symbol)
		}
	}
	mods := []*jigsaw.Module{m}
	pltBytes := 0
	if len(funcSet) > 0 {
		funcs := make([]string, 0, len(funcSet))
		for f := range funcSet {
			funcs = append(funcs, f)
		}
		pltObj, err := genPLT(funcs)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		pltBytes = len(pltObj.Text) + len(pltObj.Data)
		pm, err := jigsaw.NewModule(pltObj)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		mods = append(mods, pm)
	}
	full, err := jigsaw.Merge(mods...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	fullText, _ := link.Measure(full)
	textBase, dataBase := bases(fullText)
	res, err := link.Link(full, link.Options{
		Name: name, TextBase: textBase, DataBase: dataBase,
		Entry: entry, AllowUndefined: true,
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	f := &image.ExecFile{
		Image:  *res.Image,
		Shared: entry == "",
		PIC:    pic,
		Needed: append([]string(nil), needed...),
	}
	// Exported dynamic symbols: everything except PLT machinery and
	// the PLT stubs themselves (a module does not export the functions
	// it merely imports).
	for sym, addr := range res.Image.Syms {
		if strings.HasPrefix(sym, "$plt$") || funcSet[sym] {
			continue
		}
		f.Exports = append(f.Exports, image.Export{Name: sym, Addr: addr})
	}
	sort.Slice(f.Exports, func(i, j int) bool { return f.Exports[i].Name < f.Exports[j].Name })

	// Remaining unresolved references become dynamic relocations.
	// Function refs now bind to PLT stubs; only GOT data slots remain.
	for _, u := range res.Unresolved {
		switch u.Kind {
		case obj.RelGotSlot:
			f.DynRelocs = append(f.DynRelocs, image.DynReloc{
				Addr: u.GotSlot, Kind: image.DynAbs, Symbol: u.Symbol, Addend: u.Addend,
			})
		case obj.RelPC64, obj.RelAbs64:
			return nil, nil, 0, 0, fmt.Errorf("dynlink: %s: undefined symbol %q after PLT synthesis", name, u.Symbol)
		}
	}
	// Lazy slots: one per PLT stub, in index order.
	var lazyFuncs []string
	for sym := range res.Image.Syms {
		if strings.HasPrefix(sym, pltSlotPrefix) {
			lazyFuncs = append(lazyFuncs, strings.TrimPrefix(sym, pltSlotPrefix))
		}
	}
	sort.Strings(lazyFuncs) // matches genPLT's index assignment
	for i, fn := range lazyFuncs {
		f.LazySlots = append(f.LazySlots, image.LazySlot{
			Addr:   res.Image.Syms[pltSlotPrefix+fn],
			Symbol: fn,
			Index:  uint32(i),
		})
	}
	// Rebase patches: every absolute value stored in a writable
	// segment must move with the image.  (PIC text must contain none.)
	for _, p := range res.AbsPatches {
		seg := f.FindSegment(p.Site)
		if seg == nil {
			return nil, nil, 0, 0, fmt.Errorf("dynlink: %s: patch site %#x outside image", name, p.Site)
		}
		if seg.Perm&image.PermW == 0 {
			if pic {
				return nil, nil, 0, 0, fmt.Errorf("dynlink: %s: absolute patch in read-only segment at %#x breaks position independence", name, p.Site)
			}
			continue // fixed-address executable: text patches are fine
		}
		if pic {
			f.DynRelocs = append(f.DynRelocs, image.DynReloc{
				Addr: p.Site, Kind: image.DynRelative, Addend: int64(p.Value),
			})
		}
	}
	return f, res, pltBytes, int(res.GotSize), nil
}

// BuildSharedLib builds a PIC shared library file from a module and
// writes it to the simulated filesystem.
func BuildSharedLib(fs *osim.FS, m *jigsaw.Module, path string, needed []string) (*BuildResult, error) {
	bases := func(textSize uint64) (uint64, uint64) {
		return LibLinkBase, osim.PageAlign(LibLinkBase+textSize) + osim.PageSize
	}
	f, res, plt, got, err := buildLinked(m, path, bases, "", true, needed)
	if err != nil {
		return nil, err
	}
	enc, err := image.EncodeExec(f)
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile(path, enc); err != nil {
		return nil, err
	}
	return &BuildResult{Path: path, File: f, PLTBytes: plt, GOTBytes: got,
		FileBytes: len(enc), NumRelocs: res.NumRelocs, Records: recordsOf(m)}, nil
}

// BuildDynExec builds a dynamically linked executable that depends on
// the given shared libraries.
func BuildDynExec(fs *osim.FS, m *jigsaw.Module, path string, needed []string) (*BuildResult, error) {
	bases := func(uint64) (uint64, uint64) { return ExecTextBase, ExecDataBase }
	f, res, plt, got, err := buildLinked(m, path, bases, "_start", false, needed)
	if err != nil {
		return nil, err
	}
	enc, err := image.EncodeExec(f)
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile(path, enc); err != nil {
		return nil, err
	}
	return &BuildResult{Path: path, File: f, PLTBytes: plt, GOTBytes: got,
		FileBytes: len(enc), NumRelocs: res.NumRelocs, Records: recordsOf(m)}, nil
}

// BuildStaticExec fully links a module (no dynamic sections) and
// writes the executable.  Used for the static baseline and the
// link-time experiment.
func BuildStaticExec(fs *osim.FS, m *jigsaw.Module, path string) (*BuildResult, error) {
	res, err := link.Link(m, link.Options{
		Name: path, TextBase: ExecTextBase, DataBase: ExecDataBase, Entry: "_start",
	})
	if err != nil {
		return nil, err
	}
	f := &image.ExecFile{Image: *res.Image}
	enc, err := image.EncodeExec(f)
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile(path, enc); err != nil {
		return nil, err
	}
	return &BuildResult{Path: path, File: f, FileBytes: len(enc),
		NumRelocs: res.NumRelocs, Records: recordsOf(m)}, nil
}
