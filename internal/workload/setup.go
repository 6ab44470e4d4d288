package workload

import (
	"strconv"
	"strings"

	"omos/internal/asm"
	"omos/internal/blueprint"
	"omos/internal/dynlink"
	"omos/internal/jigsaw"
	"omos/internal/loader"
	"omos/internal/minic"
	"omos/internal/osim"
	"omos/internal/server"
)

// Crt0 is the non-PIC startup stub: argc/argv arrive in R1/R2 from the
// kernel and pass straight through to main; main's return value
// becomes the exit status.
const Crt0 = `
.text
_start:
    call main
    mov r1, r0
    sys 1
`

// Crt0PIC is the position-independent startup stub used by the
// baseline dynamic-linking world.
const Crt0PIC = `
.text
_start:
    callpc main
    mov r1, r0
    sys 1
`

// ExtraLibs returns the auxiliary libraries codegen links against
// (stand-ins for the paper's two Alpha_1 libraries plus libm, libl,
// libC), keyed by short name in link order.
func ExtraLibs() []struct{ Name, Source string } {
	return []struct{ Name, Source string }{
		{"liba1", fillerUnit("a1", 40)},
		{"liba2", fillerUnit("a2", 40)},
		{"libm", fillerUnit("m", 36)},
		{"libl", fillerUnit("l", 12)},
		{"libC", fillerUnit("C", 48)},
	}
}

// MakeFixtures populates the simulated filesystem: the one-entry
// directory for plain ls, a populated directory for ls -laF, and the
// codegen input files.
func MakeFixtures(fs *osim.FS) error {
	if err := fs.MkdirAll("/data/one"); err != nil {
		return err
	}
	if err := fs.WriteFile("/data/one/only-file", []byte("x\n")); err != nil {
		return err
	}
	if err := fs.MkdirAll("/data/many/subdir"); err != nil {
		return err
	}
	for i := 0; i < 24; i++ {
		var p text
		p.s("/data/many/file").d2(i).s(".txt")
		body := strings.Repeat("content\n", i+1)
		if err := fs.WriteFile(p.String(), []byte(body)); err != nil {
			return err
		}
	}
	for i, v := range []string{"17\n", "40\n", "6\n"} {
		if err := fs.WriteFile("/data/cg/in"+strconv.Itoa(i+1), []byte(v)); err != nil {
			return err
		}
	}
	return fs.MkdirAll("/data/cg")
}

// LibcBlueprint renders the libc library meta-object in the shape of
// the paper's Figure 1.
func LibcBlueprint() string {
	units := LibcUnits()
	srcs := make([]string, 0, len(units))
	for _, name := range LibcUnitOrder() {
		srcs = append(srcs, units[name])
	}
	return sourcesBlueprint("(constraint-list \"T\" 0x1000000 \"D\" 0x41000000) ; default address constraint\n(merge\n",
		srcs, "  ", "\n", ")\n")
}

// sourcesBlueprint renders head, then each of srcs as a quoted
// (source "c" ...) form between pre and post, then tail.  The namespace
// keeps a blueprint's text for as long as its meta-object lives, so the
// text is assembled in a scratch buffer and returned as an exact copy
// that carries no growth slack.
func sourcesBlueprint(head string, srcs []string, pre, post, tail string) string {
	const form, end = `(source "c" `, ")"
	n := len(head) + len(tail)
	for _, src := range srcs {
		// Room for the quotes and an escape every eight bytes.
		n += len(pre) + len(form) + len(src) + len(src)/8 + 2 + len(end) + len(post)
	}
	b := append(make([]byte, 0, n), head...)
	for _, src := range srcs {
		b = append(append(b, pre...), form...)
		b = append(append(blueprint.AppendQuote(b, src), end...), post...)
	}
	return string(append(b, tail...))
}

// OMOSWorld is a booted kernel + OMOS server + loader with the
// workloads installed as meta-objects.
type OMOSWorld struct {
	Kern *osim.Kernel
	Srv  *server.Server
	RT   *loader.Runtime
	CG   CodegenParams
}

// SetupOMOS boots the OMOS world: crt0 and workload meta-objects in
// the server namespace, bootstrap loader installed, FS fixtures
// created.  Programs defined: /bin/ls, /bin/codegen.  Libraries:
// /lib/libc plus codegen's five auxiliary libraries.
func SetupOMOS(cg CodegenParams) (*OMOSWorld, error) {
	k := osim.NewKernel()
	srv := server.New(k)
	rt, err := loader.Setup(k, srv)
	if err != nil {
		return nil, err
	}
	if err := rt.InstallBoot(); err != nil {
		return nil, err
	}
	crt0, err := asm.Assemble("crt0.s", Crt0)
	if err != nil {
		return nil, err
	}
	if err := srv.PutObject("/lib/crt0.o", crt0); err != nil {
		return nil, err
	}
	if err := Install(k.FS, srv, cg); err != nil {
		return nil, err
	}
	return &OMOSWorld{Kern: k, Srv: srv, RT: rt, CG: cg}, nil
}

// Install creates the filesystem fixtures and defines the workloads in
// srv's namespace: /lib/libc, codegen's five auxiliary libraries,
// /bin/ls and /bin/codegen.  The programs merge /lib/crt0.o, which the
// caller provides.
func Install(fs *osim.FS, srv *server.Server, cg CodegenParams) error {
	if err := MakeFixtures(fs); err != nil {
		return err
	}
	if err := srv.DefineLibrary("/lib/libc", LibcBlueprint()); err != nil {
		return err
	}
	libBase := uint64(0x0200_0000)
	for i, lib := range ExtraLibs() {
		head := "(constraint-list \"T\" 0x" + strconv.FormatUint(libBase+uint64(i)*0x40_0000, 16) +
			" \"D\" 0x" + strconv.FormatUint(0x4200_0000+uint64(i)*0x40_0000, 16) + ")\n(merge "
		bp := sourcesBlueprint(head, []string{lib.Source}, "", "", ")")
		if err := srv.DefineLibrary("/lib/"+lib.Name, bp); err != nil {
			return err
		}
	}
	lsBP := sourcesBlueprint("(merge /lib/crt0.o ", []string{LsSource}, "", "", " /lib/libc)")
	if err := srv.Define("/bin/ls", lsBP); err != nil {
		return err
	}
	return srv.Define("/bin/codegen", CodegenBlueprint(cg))
}

// CodegenBlueprint renders the codegen program meta-object: crt0, the
// 33 source units, and six libraries.  The units are generated back to
// back into one text and quoted from it.
func CodegenBlueprint(cg CodegenParams) string {
	var t text
	ends := make([]int, 0, cg.Units+1)
	for u := 0; u < cg.Units; u++ {
		writeCodegenUnit(&t, u, cg)
		if u == 0 {
			t.Grow(t.Len() * cg.Units) // units are near one size
		}
		ends = append(ends, t.Len())
	}
	writeCodegenMain(&t, cg)
	ends = append(ends, t.Len())
	all, start := t.String(), 0
	srcs := make([]string, len(ends))
	for i, end := range ends {
		srcs[i], start = all[start:end], end
	}
	return sourcesBlueprint("(merge /lib/crt0.o\n", srcs, "  ", "\n",
		"  /lib/libc /lib/liba1 /lib/liba2 /lib/libm /lib/libl /lib/libC)\n")
}

// BaselineWorld is a booted kernel with the workloads built as
// dynamically linked executables and PIC shared libraries (the HP-UX
// style baseline), plus static variants.
type BaselineWorld struct {
	Kern *osim.Kernel
	CG   CodegenParams
	// Paths of the installed files.
	LsPath, CodegenPath             string
	LsStaticPath, CodegenStaticPath string
	// Build results for size accounting.
	Libc    *dynlink.BuildResult
	Ls      *dynlink.BuildResult
	Codegen *dynlink.BuildResult
}

func picUnits(unit, src string) (*jigsaw.Module, error) {
	objs, err := minic.Compile(src, minic.Options{Unit: unit, PIC: true})
	if err != nil {
		return nil, err
	}
	return jigsaw.NewModule(objs...)
}

// SetupBaseline boots the baseline world.
func SetupBaseline(cg CodegenParams) (*BaselineWorld, error) {
	k := osim.NewKernel()
	dynlink.Install(k)
	if err := MakeFixtures(k.FS); err != nil {
		return nil, err
	}
	w := &BaselineWorld{Kern: k, CG: cg,
		LsPath: "/bin/ls", CodegenPath: "/bin/codegen",
		LsStaticPath: "/bin/ls.static", CodegenStaticPath: "/bin/codegen.static",
	}

	// libc.so from the same sources, compiled PIC.
	var libcMods []*jigsaw.Module
	units := LibcUnits()
	for _, name := range LibcUnitOrder() {
		m, err := picUnits("libc_"+name+".c", units[name])
		if err != nil {
			return nil, err
		}
		libcMods = append(libcMods, m)
	}
	libcMod, err := jigsaw.Merge(libcMods...)
	if err != nil {
		return nil, err
	}
	w.Libc, err = dynlink.BuildSharedLib(k.FS, libcMod, "/lib/libc.so", nil)
	if err != nil {
		return nil, err
	}
	needed := []string{"/lib/libc.so"}
	for _, lib := range ExtraLibs() {
		m, err := picUnits(lib.Name+".c", lib.Source)
		if err != nil {
			return nil, err
		}
		path := "/lib/" + lib.Name + ".so"
		if _, err := dynlink.BuildSharedLib(k.FS, m, path, nil); err != nil {
			return nil, err
		}
		needed = append(needed, path)
	}

	crt0, err := asm.Assemble("crt0.s", Crt0PIC)
	if err != nil {
		return nil, err
	}
	crt0Mod, err := jigsaw.NewModule(crt0)
	if err != nil {
		return nil, err
	}

	// ls: dynamic against libc only.
	lsMod, err := picUnits("ls.c", LsSource)
	if err != nil {
		return nil, err
	}
	lsFull, err := jigsaw.Merge(crt0Mod, lsMod)
	if err != nil {
		return nil, err
	}
	w.Ls, err = dynlink.BuildDynExec(k.FS, lsFull, w.LsPath, []string{"/lib/libc.so"})
	if err != nil {
		return nil, err
	}

	// codegen: dynamic against all six libraries.
	var cgMods []*jigsaw.Module
	cgMods = append(cgMods, crt0Mod)
	cgUnits := CodegenUnits(cg)
	for _, name := range CodegenUnitOrder(cg) {
		m, err := picUnits(name+".c", cgUnits[name])
		if err != nil {
			return nil, err
		}
		cgMods = append(cgMods, m)
	}
	cgFull, err := jigsaw.Merge(cgMods...)
	if err != nil {
		return nil, err
	}
	w.Codegen, err = dynlink.BuildDynExec(k.FS, cgFull, w.CodegenPath, needed)
	if err != nil {
		return nil, err
	}

	// Static variants: everything merged into one executable.
	staticLs, err := staticMerge(crt0Mod, lsMod, libcMod)
	if err != nil {
		return nil, err
	}
	if _, err := dynlink.BuildStaticExec(k.FS, staticLs, w.LsStaticPath); err != nil {
		return nil, err
	}
	var staticParts []*jigsaw.Module
	staticParts = append(staticParts, cgMods...) // crt0 + codegen units
	for _, lib := range ExtraLibs() {
		m, err := picUnits(lib.Name+"s.c", lib.Source)
		if err != nil {
			return nil, err
		}
		staticParts = append(staticParts, m)
	}
	staticParts = append(staticParts, libcMod)
	staticCg, err := staticMerge(staticParts...)
	if err != nil {
		return nil, err
	}
	if _, err := dynlink.BuildStaticExec(k.FS, staticCg, w.CodegenStaticPath); err != nil {
		return nil, err
	}
	return w, nil
}

func staticMerge(mods ...*jigsaw.Module) (*jigsaw.Module, error) {
	return jigsaw.Merge(mods...)
}
