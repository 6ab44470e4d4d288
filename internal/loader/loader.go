// Package loader implements the three OMOS program invocation paths
// of §5, plus the partial-image shared library scheme of §4.2:
//
//   - Bootstrap exec: the native exec runs a tiny boot program
//     (#!/bin/omos in the paper) which contacts OMOS over IPC, has the
//     server map the cached images into its address space, and jumps
//     to the entry point.  It pays native exec cost for the boot
//     binary plus an IPC round trip.
//
//   - Integrated exec: OMOS is wired into the exec path itself; the
//     server maps pre-parsed segments directly into the new task.  No
//     executable-file parsing, no IPC from a client program.
//
//   - Partial-image exec: the client is a complete, ordinary
//     executable file whose library references go through generated
//     stubs; the first call to each library routine DYNLOADs the
//     library from OMOS and binds through a function hash table.
package loader

import (
	"encoding/binary"
	"fmt"
	"strings"

	"omos/internal/asm"
	"omos/internal/constraint"
	"omos/internal/image"
	"omos/internal/jigsaw"
	"omos/internal/link"
	"omos/internal/osim"
	"omos/internal/server"
)

// BootPath is where the bootstrap loader binary is installed.
const BootPath = "/bin/omos-boot"

// OMOSPort is the IPC port the server answers on.
const OMOSPort = 1

// Boot binary placement; reserved in the constraint solver so OMOS
// never places an image over the loader.
const (
	bootText = uint64(0x7000_0000)
	bootData = uint64(0x7010_0000)
	bootSpan = uint64(0x0020_0000)
)

// Runtime wires a kernel and an OMOS server together: it installs the
// IPC and DYNLOAD handlers and knows how to launch programs by every
// scheme.
type Runtime struct {
	Kern *osim.Kernel
	Srv  *server.Server
}

// procState tracks per-process loader state (which dynamic libraries
// are already mapped, and their table addresses).
type procState struct {
	tables map[string]uint64
}

func stateOf(p *osim.Process) *procState {
	if st, ok := p.Loader.(*procState); ok {
		return st
	}
	st := &procState{tables: map[string]uint64{}}
	p.Loader = st
	return st
}

// Setup installs the loader's kernel hooks and reserves the boot
// region in the server's constraint solver.
func Setup(k *osim.Kernel, srv *server.Server) (*Runtime, error) {
	rt := &Runtime{Kern: k, Srv: srv}
	k.Hooks.Dynload = rt.dynload
	k.Hooks.IPC = rt.ipc
	_, err := srv.Solver().Place(constraint.Request{
		Key:     "loader:boot",
		Reserve: []constraint.Region{{Base: bootText, Size: bootSpan}},
	})
	if err != nil {
		return nil, fmt.Errorf("loader: reserving boot region: %w", err)
	}
	return rt, nil
}

// ipc services SysIPC: port 1 carries instantiation requests from the
// bootstrap loader.  The request payload is the meta-object path; the
// server maps the cached images into the requesting process and
// replies with the entry point.
func (rt *Runtime) ipc(p *osim.Process, port uint64, req []byte) ([]byte, error) {
	if port != OMOSPort {
		return nil, fmt.Errorf("loader: no server on port %d", port)
	}
	name := string(req)
	inst, err := rt.Srv.Instantiate(name, p)
	if err != nil {
		return nil, err
	}
	if err := rt.Srv.MapInstance(p, inst); err != nil {
		return nil, err
	}
	var reply [8]byte
	binary.LittleEndian.PutUint64(reply[:], inst.Entry())
	return reply[:], nil
}

// dynload services SysDynload from partial-image stubs: instantiate
// the library (cached), map it plus its export hash table into the
// process, and return the table address.  Repeat requests for an
// already-mapped library are answered from per-process state.
//
// The stub-supplied name may carry a version suffix ("path@hash",
// written by BuildPartialExec); a mismatch with the library's current
// content hash means the partial image is stale and must be relinked —
// the versioning safety of §4.2.
func (rt *Runtime) dynload(p *osim.Process, name string) (uint64, error) {
	st := stateOf(p)
	if addr, ok := st.tables[name]; ok {
		p.ChargeServer(rt.Kern.Cost.ServerCacheLookup)
		return addr, nil
	}
	path := name
	if i := strings.LastIndexByte(name, '@'); i >= 0 {
		path = name[:i]
		want := name[i+1:]
		cur, err := rt.Srv.ContentHashOf(path)
		if err != nil {
			return 0, err
		}
		if cur != want {
			return 0, fmt.Errorf("loader: %s has changed since this partial image was linked "+
				"(version %s, current %s); rebuild with BuildPartialExec", path, want, cur)
		}
	}
	inst, err := rt.Srv.InstantiateLib(libDep(path), p)
	if err != nil {
		return 0, err
	}
	if _, err := rt.Srv.ExportTable(inst); err != nil {
		return 0, err
	}
	if err := rt.Srv.MapInstance(p, inst); err != nil {
		return 0, err
	}
	st.tables[name] = inst.TableAddr
	return inst.TableAddr, nil
}

// bootSrc is the bootstrap loader: it reads argv[0] as the OMOS
// namespace path, asks the server (IPC port 1) to instantiate and map
// it, restores the client's argument registers, and jumps to the
// entry point — subsuming exec() as §5 describes.
const bootSrc = `
.text
_start:
    mov r13, r1          ; save argc for the client
    ld r4, [r2]          ; argv[0] = meta-object path
    mov r7, r4
.Llen:
    ld8 r8, [r7]
    movi r9, 0
    beq r8, r9, .Ldone
    addi r7, r7, 1
    jmp .Llen
.Ldone:
    mov r12, r2          ; save argv
    sub r3, r7, r4       ; request length
    mov r2, r4           ; request pointer
    movi r1, 1           ; OMOS port
    lea r4, =replybuf
    movi r5, 8
    sys 12               ; ipc -> server maps images, replies entry
    lea r4, =replybuf
    ld r11, [r4]
    mov r1, r13          ; restore argc
    mov r2, r12          ; restore argv
    jmpr r11
.data
replybuf:
    .quad 0
`

// InstallBoot assembles, links, and installs the bootstrap loader
// binary into the simulated filesystem.
func (rt *Runtime) InstallBoot() error {
	o, err := asm.Assemble("omos-boot.s", bootSrc)
	if err != nil {
		return fmt.Errorf("loader: assembling boot: %w", err)
	}
	m, err := jigsaw.NewModule(o)
	if err != nil {
		return err
	}
	res, err := link.Link(m, link.Options{
		Name:     "omos-boot",
		TextBase: bootText,
		DataBase: bootData,
		Entry:    "_start",
	})
	if err != nil {
		return fmt.Errorf("loader: linking boot: %w", err)
	}
	f := &image.ExecFile{Image: *res.Image}
	enc, err := image.EncodeExec(f)
	if err != nil {
		return err
	}
	return rt.Kern.FS.WriteFile(BootPath, enc)
}

// ExecBootstrap launches the named meta-object through the bootstrap
// loader: a native exec of the boot binary, whose argv[0] carries the
// namespace path.  The returned process is ready to run.
func (rt *Runtime) ExecBootstrap(name string, args []string) (*osim.Process, error) {
	p := rt.Kern.Spawn()
	argv := append([]string{name}, args...)
	if _, err := rt.Kern.ExecNative(p, BootPath, argv); err != nil {
		return nil, err
	}
	return p, nil
}

// ExportToUnix writes a "#!" interpreter file that exports an OMOS
// namespace entry into the Unix filesystem namespace (§5: "This allows
// us to export entries from the OMOS namespace into the Unix
// namespace, in a portable fashion (as a parameter in the file)").
// Executing fsPath with Kernel.Exec then boots the meta-object through
// the bootstrap loader.
func (rt *Runtime) ExportToUnix(metaPath, fsPath string) error {
	return rt.Kern.FS.WriteFile(fsPath, []byte("#!"+BootPath+" "+metaPath+"\n"))
}

// ExecPath launches a Unix-namespace path: an ordinary executable or a
// "#!" export produced by ExportToUnix.  args are program arguments
// (no argv[0]).
func (rt *Runtime) ExecPath(path string, args []string) (*osim.Process, error) {
	p := rt.Kern.Spawn()
	if _, err := rt.Kern.Exec(p, path, args); err != nil {
		return nil, err
	}
	return p, nil
}

// ExecIntegrated launches the named meta-object through the
// OMOS-integrated exec path: the server maps pre-parsed segments
// directly into the empty task.  No boot binary, no IPC, no
// executable-file parsing.
func (rt *Runtime) ExecIntegrated(name string, args []string) (*osim.Process, error) {
	p := rt.Kern.Spawn()
	p.ChargeSys(rt.Kern.Cost.ExecBase)
	inst, err := rt.Srv.Instantiate(name, p)
	if err != nil {
		return nil, err
	}
	if err := rt.Srv.MapInstance(p, inst); err != nil {
		return nil, err
	}
	argv := append([]string{name}, args...)
	if err := p.SetupStack(argv); err != nil {
		return nil, err
	}
	p.CPU.PC = inst.Entry()
	return p, nil
}

// Run executes a prepared process to completion and returns its exit
// code.
func (rt *Runtime) Run(p *osim.Process) (uint64, error) {
	return rt.Kern.RunToExit(p)
}
