package main

import (
	_ "embed"
	"fmt"
	"net"
	"strings"

	"omos"
	"omos/internal/daemon"
	"omos/internal/dynlink"
	"omos/internal/ipc"
	"omos/internal/workload"
)

// The ls and list goldens were written by hand from the listing in
// workload.MakeFixtures and daemon.InstallWorkloads, not captured from a
// run, so a daemon that answers wrongly cannot have taught the
// benchmark its mistake.
var (
	//go:embed testdata/ls_one.golden
	goldenLsOne string
	//go:embed testdata/ls_many.golden
	goldenLsMany string
	//go:embed testdata/list_lib.golden
	goldenListLib string
)

// reference holds what each reply is checked against.
type reference struct {
	lsOne, lsMany string
	listLib       []string
	// codegen's exit code and /data/cg/out, from the same program built
	// and run in the baseline world: PIC compile, dynlink.Build*, and the
	// user-space dynamic linker — a link path that shares nothing with
	// the OMOS server's.
	cgExit uint64
	cgOut  string
	// simulated elapsed cycles of the baseline runs (Table 1's
	// denominators), reported as dynlink.sim_cycles.*.
	dynLsCycles, dynCgCycles uint64
}

func loadReference() (*reference, error) {
	ref := &reference{lsOne: goldenLsOne, lsMany: goldenLsMany,
		listLib: strings.Fields(goldenListLib)}
	w, err := workload.SetupBaseline(workload.DefaultCodegen())
	if err != nil {
		return nil, fmt.Errorf("baseline world: %w", err)
	}
	run := func(path string, args []string) (code, cycles uint64, out string, err error) {
		p, err := dynlink.Exec(w.Kern, path, args, dynlink.Options{})
		if err != nil {
			return 0, 0, "", err
		}
		defer p.Release()
		code, err = w.Kern.RunToExit(p)
		return code, p.Clock.Elapsed(), p.Output.String(), err
	}
	// Twice: the first run pays the disk reads the warm daemon never sees.
	for i := 0; i < 2; i++ {
		if ref.cgExit, ref.dynCgCycles, _, err = run(w.CodegenPath, nil); err != nil {
			return nil, fmt.Errorf("baseline codegen: %w", err)
		}
		var out string
		var code uint64
		if code, ref.dynLsCycles, out, err = run(w.LsPath, []string{"/data/one"}); err != nil {
			return nil, fmt.Errorf("baseline ls: %w", err)
		}
		if code != 0 || out != ref.lsOne {
			return nil, fmt.Errorf("baseline ls disagrees with the golden: exit=%d out=%q", code, out)
		}
	}
	b, _, err := w.Kern.FS.ReadFile("/data/cg/out")
	if err != nil {
		return nil, fmt.Errorf("baseline codegen output: %w", err)
	}
	ref.cgOut = string(b)
	return ref, nil
}

// rig is one booted in-process daemon: a System on a store directory,
// the daemon backend (behind the tracing decorator when tr is set), and
// an ipc.Server on a loopback port.
type rig struct {
	sys    *omos.System
	srv    *ipc.Server
	addr   string
	served chan error
}

// bootRig is the daemon's start-up as omosd performs it: boot (which
// warm-loads whatever dir holds), install the standard workloads,
// listen, serve.  The steps are timed under tr when it is on.
func bootRig(dir string, tr *tracer) (*rig, error) {
	r := &rig{served: make(chan error, 1)} // one send: Serve's result
	err := tr.timed("omos.boot", func() (err error) {
		r.sys, err = omos.NewSystemWith(omos.Options{StoreDir: dir})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	err = tr.timed("daemon.install", func() error {
		return daemon.InstallWorkloads(r.sys, workload.DefaultCodegen())
	})
	if err != nil {
		r.sys.Close()
		return nil, fmt.Errorf("install workloads: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.sys.Close()
		return nil, err
	}
	r.addr = l.Addr().String()
	plain := daemon.New(r.sys)
	var backend ipc.Backend = plain
	if tr != nil {
		backend = &tracedBackend{Backend: plain, tr: tr}
	}
	r.srv = ipc.NewServer(backend)
	go func() { r.served <- r.srv.Serve(l) }()
	return r, nil
}

// close drains the transport, waits for Serve to return, and flushes
// and detaches the store.  Clients must be closed first, or Shutdown
// waits out its drain grace for them.
func (r *rig) close() error {
	r.srv.Shutdown()
	serr := <-r.served
	if err := r.sys.Close(); err != nil {
		return err
	}
	return serr
}

// checkRun compares a Run reply with the reference for its class.
func checkRun(resp *ipc.Response, wantExit uint64, wantOut string) error {
	if resp.ExitCode != wantExit {
		return fmt.Errorf("exit code %d, want %d", resp.ExitCode, wantExit)
	}
	if resp.Output != wantOut {
		return fmt.Errorf("output %q, want %q", resp.Output, wantOut)
	}
	return nil
}

func simCycles(resp *ipc.Response) uint64 {
	return resp.User + resp.Sys + resp.Server + resp.Wait
}

// runReq builds a Run request and its trace signature.
func runReq(name string, bootstrap bool, args ...string) (*ipc.Request, string) {
	op := ipc.OpRun
	if bootstrap {
		op = ipc.OpRunBoot
	}
	return &ipc.Request{Op: op, Path: name, Args: args}, runSig(name, args, bootstrap)
}
