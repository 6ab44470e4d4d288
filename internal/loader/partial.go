package loader

import (
	"fmt"
	"sort"
	"strings"

	"omos/internal/asm"
	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/mgraph"
	"omos/internal/obj"
	"omos/internal/osim"
	"omos/internal/server"
)

func libDep(path string) mgraph.LibDep {
	return mgraph.LibDep{Path: path, Spec: mgraph.Spec{Kind: "lib-static"}}
}

// BuildPartialExec builds a partial-image executable (§4.2) for the
// named program meta-object and installs it at execPath in the
// simulated filesystem.
//
// The client's own code is linked completely and exported as an
// ordinary executable file; every reference to a dynamic library
// routine is satisfied by a generated stub.  On the first call the
// stub DYNLOADs the library, looks the routine up in the returned
// function hash table, and caches the address in an indirect branch
// slot; later calls jump through the slot.
func (rt *Runtime) BuildPartialExec(metaName, execPath string) error {
	v, _, err := rt.Srv.EvalProgram(metaName)
	if err != nil {
		return err
	}
	if v.Module == nil {
		return fmt.Errorf("loader: %s has no client fragments", metaName)
	}
	undefined := v.Module.Undefined()
	mods := []*jigsaw.Module{v.Module}
	claimed := map[string]bool{}
	for _, dep := range v.Libs {
		inst, err := rt.Srv.InstantiateLib(dep, nil)
		if err != nil {
			return err
		}
		var stubs []string
		for _, u := range undefined {
			if claimed[u] {
				continue
			}
			e, exported := inst.Res.Exports[u]
			if !exported {
				continue
			}
			if e.Kind != obj.SymFunc {
				return fmt.Errorf("loader: %s: %s references shared variable %q in %s; "+
					"partial-image libraries cannot export data — access it through a procedure (§4.2)",
					metaName, execPath, u, dep.Path)
			}
			claimed[u] = true
			stubs = append(stubs, u)
		}
		if len(stubs) == 0 {
			continue
		}
		// Embed the library's content hash so DYNLOAD can reject a
		// stale partial image after the library changes — the
		// versioning safety §4.2 calls for.
		version, err := rt.Srv.ContentHashOf(dep.Path)
		if err != nil {
			return err
		}
		stubObj, err := GenStubs(dep.Path+"@"+version, stubs)
		if err != nil {
			return err
		}
		sm, err := jigsaw.NewModule(stubObj)
		if err != nil {
			return err
		}
		mods = append(mods, sm)
	}
	merged, err := jigsaw.Merge(mods...)
	if err != nil {
		return err
	}
	res, err := link.Link(merged, link.Options{
		Name:     metaName + " (partial)",
		TextBase: server.DefaultClientText,
		DataBase: server.DefaultClientData,
		Entry:    "_start",
	})
	if err != nil {
		return fmt.Errorf("loader: linking partial image %s: %w", metaName, err)
	}
	f := &image.ExecFile{Image: *res.Image}
	enc, err := image.EncodeExec(f)
	if err != nil {
		return err
	}
	return rt.Kern.FS.WriteFile(execPath, enc)
}

// ExecPartial launches a previously built partial-image executable via
// the native exec path.  Library binding happens lazily at run time
// through the stubs.
func (rt *Runtime) ExecPartial(execPath string, args []string) (*osim.Process, error) {
	p := rt.Kern.Spawn()
	argv := append([]string{execPath}, args...)
	if _, err := rt.Kern.ExecNative(p, execPath, argv); err != nil {
		return nil, err
	}
	return p, nil
}

// GenStubs generates the stub object for one dynamic library: an
// entry stub per function plus a private binder routine.  All support
// symbols are object-local; only the function names are exported, so
// the client's references bind to the stubs at static link time.
func GenStubs(libPath string, funcs []string) (*obj.Object, error) {
	sort.Strings(funcs)
	var sb strings.Builder
	sb.WriteString(".text\n")
	for _, f := range funcs {
		fmt.Fprintf(&sb, `%[1]s:
    lea r10, =.Lslot$%[1]s
    ld r11, [r10]
    movi r12, 0
    bne r11, r12, .Lgo$%[1]s
    push r1
    push r2
    push r3
    push r4
    push r5
    push r6
    lea r1, =.Lname$%[1]s
    lea r3, =.Lslot$%[1]s
    call .Ldynbind
    mov r11, r0
    pop r6
    pop r5
    pop r4
    pop r3
    pop r2
    pop r1
.Lgo$%[1]s:
    jmpr r11
`, f)
	}
	// The binder: r1 = routine name, r3 = slot address.  DYNLOADs the
	// library, FNV-hashes the name, probes the table, patches the
	// slot.  A missing routine exits with status 127.
	sb.WriteString(`.Ldynbind:
    push r1
    push r3
    lea r1, =.Llibname
    sys 9                ; dynload -> r0 = table
    pop r3
    pop r1
    movi r4, 0xcbf29ce484222325
    mov r5, r1
.Lhash:
    ld8 r6, [r5]
    movi r7, 0
    beq r6, r7, .Lhashdone
    xor r4, r4, r6
    movi r7, 0x100000001b3
    mul r4, r4, r7
    addi r5, r5, 1
    jmp .Lhash
.Lhashdone:
    movi r7, 0
    bne r4, r7, .Lmask
    movi r4, 1           ; hash 0 is reserved for empty slots
.Lmask:
    ld r6, [r0]          ; nslots
    addi r7, r6, -1      ; mask
    and r8, r4, r7
.Lprobe:
    muli r9, r8, 16
    add r9, r9, r0
    addi r9, r9, 8       ; slot base
    ld r10, [r9]
    beq r10, r4, .Lfound
    movi r12, 0
    beq r10, r12, .Lfail
    addi r8, r8, 1
    and r8, r8, r7
    jmp .Lprobe
.Lfound:
    ld r0, [r9+8]
    st [r3], r0          ; patch the indirect branch slot
    ret
.Lfail:
    movi r1, 127
    sys 1
`)
	sb.WriteString(".data\n")
	fmt.Fprintf(&sb, ".Llibname:\n    .asciz %q\n", libPath)
	for _, f := range funcs {
		fmt.Fprintf(&sb, ".Lname$%s:\n    .asciz %q\n", f, f)
		fmt.Fprintf(&sb, ".align 8\n.Lslot$%s:\n    .quad 0\n", f)
	}
	o, err := asm.Assemble("stubs:"+libPath, sb.String())
	if err != nil {
		return nil, fmt.Errorf("loader: assembling stubs for %s: %w", libPath, err)
	}
	return o, nil
}

// StubOverheadBytes reports the text+data bytes of dispatch machinery
// (stubs, binder, slots, names) a partial image carries for the given
// function set — the "dispatch table" memory cost the paper's §4.1
// memory discussion cites from [11].
func StubOverheadBytes(libPath string, funcs []string) (int, error) {
	o, err := GenStubs(libPath, funcs)
	if err != nil {
		return 0, err
	}
	return len(o.Text) + len(o.Data) + int(o.BSSSize), nil
}
