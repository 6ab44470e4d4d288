package link_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"regexp"
	"sort"
	"testing"

	"omos/internal/asm"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/minic"
	"omos/internal/obj"
	"omos/internal/workload"
)

// compileModule compiles C units in order (with a startup stub first
// when crt0 is non-empty) and merges them into one module.
func compileModule(t testing.TB, pic bool, crt0 string, order []string, units map[string]string) *jigsaw.Module {
	t.Helper()
	var mods []*jigsaw.Module
	if crt0 != "" {
		o, err := asm.Assemble("crt0.s", crt0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := jigsaw.NewModule(o)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	for _, name := range order {
		objs, err := minic.Compile(units[name], minic.Options{Unit: name, PIC: pic})
		if err != nil {
			t.Fatal(err)
		}
		m, err := jigsaw.NewModule(objs...)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	m, err := jigsaw.Merge(mods...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenCase is one link input: a module and the options it links with.
type goldenCase struct {
	name string
	mod  *jigsaw.Module
	opts link.Options
}

// goldenCases builds libc, ls (against libc's exports and with its
// references left unresolved) and codegen's units, compiled non-PIC
// and PIC, plus a small assembled module that the workloads leave out:
// GOT slots (bound and unbound), bss, and a module-local, a frozen and
// a copied definition.
func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, pic := range []bool{false, true} {
		crt0 := workload.Crt0
		if pic {
			crt0 = workload.Crt0PIC
		}
		libc := compileModule(t, pic, "", workload.LibcUnitOrder(), workload.LibcUnits())
		libcOpts := link.Options{Name: "libc", TextBase: 0x100_0000, DataBase: 0x4100_0000}
		libcRes, err := link.Link(libc, libcOpts)
		if err != nil {
			t.Fatal(err)
		}
		ls := compileModule(t, pic, crt0, []string{"ls"}, map[string]string{"ls": workload.LsSource})
		cg := workload.DefaultCodegen()
		codegen := compileModule(t, pic, crt0, workload.CodegenUnitOrder(cg), workload.CodegenUnits(cg))
		lsExt, lsUndef, cgUndef := progOpts("ls"), progOpts("ls"), progOpts("codegen")
		lsExt.Externs = libcRes.Image.Syms
		lsUndef.AllowUndefined = true
		cgUndef.AllowUndefined = true
		suffix := fmt.Sprintf(" pic=%v", pic)
		cases = append(cases,
			goldenCase{"libc" + suffix, libc, libcOpts},
			goldenCase{"ls+libc" + suffix, ls, lsExt},
			goldenCase{"ls-undef" + suffix, ls, lsUndef},
			goldenCase{"codegen-undef" + suffix, codegen, cgUndef})
	}
	mod := func(name, src string) *jigsaw.Module {
		o, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := jigsaw.NewModule(o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m, err := jigsaw.Merge(mod("main.s", `
.text
_start:
    ldg r2, @shared
    ld r1, [r2]
    ldg r3, @missing_data
    ldg r2, @shared
    call helper
    call twin
    call frozen
    lea r4, =buf
    mov r1, r0
    sys 1
.local helper
helper:
    lea r2, =counter
    ld r0, [r2+0]
    ret
frozen:
    movi r0, 3
    ret
.data
.local counter
counter:
    .quad 5
.bss
buf:
    .space 100
`), mod("lib.s", `
.text
orig:
    movi r0, 7
    ret
.data
shared:
    .quad 9
.bss
more:
    .space 12
`))
	if err != nil {
		t.Fatal(err)
	}
	if m, err = m.CopyAs(regexp.MustCompile(`^orig$`), "twin"); err != nil {
		t.Fatal(err)
	}
	opsOpts := progOpts("ops")
	opsOpts.AllowUndefined = true
	ops := m.Freeze(regexp.MustCompile(`^frozen$`)).Hide(regexp.MustCompile(`^orig$`))
	return append(cases, goldenCase{"ops", ops, opsOpts})
}

func progOpts(name string) link.Options {
	return link.Options{Name: name, TextBase: 0x10_0000, DataBase: 0x4000_0000, Entry: "_start"}
}

// privatized matches the names jigsaw gives module-local symbols; the
// number comes from a process-wide counter, so it depends on how many
// modules the process built before.
var privatized = regexp.MustCompile(`\$p\d+$`)

// canonicalNames renames privatized symbols in order of first
// appearance (symbols, then relocations), so an object's encoding does
// not depend on what else the process compiled.
func canonicalNames(o *obj.Object) {
	names := map[string]string{}
	canon := func(s string) string {
		if !privatized.MatchString(s) {
			return s
		}
		if c, ok := names[s]; ok {
			return c
		}
		c := privatized.ReplaceAllString(s, fmt.Sprintf("$$q%d", len(names)))
		names[s] = c
		return c
	}
	for i := range o.Syms {
		o.Syms[i].Name = canon(o.Syms[i].Name)
	}
	for i := range o.Relocs {
		o.Relocs[i].Symbol = canon(o.Relocs[i].Symbol)
	}
}

// dumpResult writes every observable field of a link result in a
// canonical order.
func dumpResult(h hash.Hash, res *link.Result) {
	img := res.Image
	fmt.Fprintf(h, "image %s entry=%#x entryseg=%d\n", img.Name, img.Entry, res.EntrySeg)
	for _, s := range img.Segments {
		fmt.Fprintf(h, "seg %s addr=%#x mem=%#x perm=%d len=%d %x\n", s.Name, s.Addr, s.MemSize, s.Perm, len(s.Data), sha256.Sum256(s.Data))
	}
	names := make([]string, 0, len(img.Syms))
	for name := range img.Syms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := res.Exports[name]
		fmt.Fprintf(h, "sym %s=%#x size=%d kind=%d seg=%d\n", name, img.Syms[name], e.Size, e.Kind, e.Seg)
	}
	fmt.Fprintf(h, "exports %d got=%#x+%d\n", len(res.Exports), res.GotBase, res.GotSize)
	slots := make([]string, 0, len(res.GotSlots))
	for name := range res.GotSlots {
		slots = append(slots, name)
	}
	sort.Slice(slots, func(i, j int) bool { return res.GotSlots[slots[i]] < res.GotSlots[slots[j]] })
	for _, name := range slots {
		fmt.Fprintf(h, "slot %s=%#x\n", privatized.ReplaceAllString(name, "$$q"), res.GotSlots[name])
	}
	for _, p := range res.AbsPatches {
		fmt.Fprintf(h, "abs %#x=%#x %d\n", p.Site, p.Value, p.Seg)
	}
	for _, p := range res.RelPatches {
		fmt.Fprintf(h, "rel %#x %d\n", p.Site, p.Seg)
	}
	for _, u := range res.Unresolved {
		fmt.Fprintf(h, "unres %#x %#x %d %s%+d slot=%#x\n", u.Site, u.InstrAddr, u.Kind, u.Symbol, u.Addend, u.GotSlot)
	}
	fmt.Fprintf(h, "relocs=%d binds=%d records=%d bases=%#x/%#x sizes=%d/%d/%d\n",
		res.NumRelocs, res.ExternBinds, res.Records, res.TextBase, res.DataBase, res.TextSize, res.DataSize, res.BSSSize)
}

// TestGoldenDigest pins the linker's output across commits: every
// field of Link's result, Measure's sizes and Partial's encoding for
// libc, ls and codegen, compiled PIC and not, and for a module that
// has been through copy-as, freeze and hide.  A change here changes
// the bytes of every image the server caches.
func TestGoldenDigest(t *testing.T) {
	const want = "c8af74d933c54202f3d446f19628ce1ef5a5f65058a8f6d6344554adfa95543d"
	h := sha256.New()
	for _, c := range goldenCases(t) {
		fmt.Fprintf(h, "case %s\n", c.name)
		res, err := link.Link(c.mod, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dumpResult(h, res)
		text, data := link.Measure(c.mod)
		fmt.Fprintf(h, "measure %d %d\n", text, data)
		flat, err := link.Partial(c.mod, c.opts.Name+".o")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		canonicalNames(flat)
		enc, err := obj.Encode(flat)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("link digest changed:\n got %s\nwant %s", got, want)
	}
}
