// Package omos is the public facade of the OMOS reproduction: a
// persistent object/meta-object server that provides program linking
// and loading as a special case of generic object instantiation
// (Orr, Bonn, Lepreau, Mecklenburg: "Fast and Flexible Shared
// Libraries", Winter USENIX 1993).
//
// A System bundles a simulated machine (CPU, paged memory, kernel,
// filesystem), an OMOS server, and the loader runtime.  Programs and
// libraries are defined as blueprint meta-objects; instantiation
// produces cached, relocated images whose read-only pages are shared
// between every client process that maps them.
//
//	sys, _ := omos.NewSystem()
//	sys.DefineLibrary("/lib/mylib", `(source "c" "int f(int x){return x*2;}")`)
//	sys.Define("/bin/app", `(merge /lib/crt0.o (source "c" "
//	    extern int f(int);
//	    int main() { return f(21); }") /lib/mylib)`)
//	res, _ := sys.Run("/bin/app", nil)
//	// res.ExitCode == 42
package omos

import (
	"errors"
	"fmt"
	"time"

	"omos/internal/asm"
	"omos/internal/fault"
	"omos/internal/loader"
	"omos/internal/minic"
	"omos/internal/obj"
	"omos/internal/osim"
	"omos/internal/server"
	"omos/internal/store"
	"omos/internal/vm"
	"omos/internal/workload"
)

// System is a booted simulated machine with an OMOS server attached.
type System struct {
	// Kern is the simulated operating system instance.
	Kern *osim.Kernel
	// Srv is the OMOS object/meta-object server.
	Srv *server.Server
	// RT is the loader runtime (bootstrap, integrated, and
	// partial-image exec paths).
	RT *loader.Runtime
	// WarmLoaded is the number of cached images attached from the
	// persistent store at boot, each served on first use without a
	// relink (zero without a store or on a cold directory).
	WarmLoaded int
	// Faults is the deterministic fault-injection set armed at boot
	// (nil when Options.FaultSpec was empty).  Shared by the server,
	// the store, and the frame table.
	Faults *fault.Set

	// stops are the background loops (the scrubber) Close shuts down.
	stops []func()
}

// Options configures system boot.
type Options struct {
	// StoreDir, when non-empty, names a directory backing the image
	// cache persistently: every image built is written through, and
	// the next boot on the same directory attaches it — cached
	// instantiations across daemon restarts without a single relink.
	StoreDir string
	// StoreMaxBytes bounds the store's payload bytes; 0 means
	// unlimited.  When over budget, least-recently-used images that no
	// live process maps and no cached image links against are evicted.
	StoreMaxBytes int64
	// FaultSpec, when non-empty, arms deterministic fault injection
	// across the store, server build pipeline, and frame table.  The
	// syntax is fault.Parse's: "site:kind[:p=P|n=N][:count=C][:delay=D]"
	// entries separated by ';' or ','.
	FaultSpec string
	// FaultSeed seeds the injection PRNG; 0 means seed 1 (injection
	// stays reproducible by default).
	FaultSeed int64

	// MaxInflight and QueueDepth size the admission gate on the
	// server's instantiation entry points: up to MaxInflight requests
	// run at once, up to QueueDepth more wait, and the rest are shed
	// with a retry-after hint.  Both zero leaves the server ungated
	// (the pre-overload-protection behavior); either non-zero gates
	// with defaults (64/256) for the other.
	MaxInflight int
	QueueDepth  int
	// BuildTimeout bounds each image build; past it the watchdog
	// cancels the build and singleflight followers re-elect.  Zero
	// disables the watchdog.  Half of it (30s when zero) is the build
	// age past which health reports the server degraded.
	BuildTimeout time.Duration
	// ScrubInterval enables the store's background scrubber (requires
	// StoreDir): every interval it re-verifies four blob checksums,
	// quarantining rot proactively, and sweeps orphaned temp files.
	// Zero disables scrubbing.
	ScrubInterval time.Duration
}

// NewSystem boots a fresh machine, attaches an OMOS server, installs
// the bootstrap loader binary, and provides the default startup object
// at /lib/crt0.o.
func NewSystem() (*System, error) { return NewSystemWith(Options{}) }

// NewSystemWith boots a system with explicit options.  With a store
// directory configured, images persisted by previous sessions are
// reconstructed before the system is returned.
func NewSystemWith(opts Options) (*System, error) {
	k := osim.NewKernel()
	srv := server.New(k)
	rt, err := loader.Setup(k, srv)
	if err != nil {
		return nil, err
	}
	if err := rt.InstallBoot(); err != nil {
		return nil, err
	}
	crt0, err := asm.Assemble("crt0.s", workload.Crt0)
	if err != nil {
		return nil, err
	}
	if err := srv.PutObject("/lib/crt0.o", crt0); err != nil {
		return nil, err
	}
	sys := &System{Kern: k, Srv: srv, RT: rt}
	if opts.FaultSpec != "" {
		seed := opts.FaultSeed
		if seed == 0 {
			seed = 1
		}
		f, err := fault.Parse(opts.FaultSpec, seed)
		if err != nil {
			return nil, fmt.Errorf("omos: fault spec: %w", err)
		}
		sys.Faults = f
		srv.SetFaults(f)
		k.FT.Faults = f
	}
	if opts.StoreDir != "" {
		st, err := store.Open(opts.StoreDir, opts.StoreMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("omos: opening image store: %w", err)
		}
		st.SetFaults(sys.Faults)
		sys.WarmLoaded = srv.AttachStore(st)
		if opts.ScrubInterval > 0 {
			sys.stops = append(sys.stops, st.StartScrub(opts.ScrubInterval))
		}
	}
	if opts.MaxInflight > 0 || opts.QueueDepth > 0 {
		srv.SetAdmission(server.NewAdmission(server.AdmissionConfig{
			MaxInflight: opts.MaxInflight,
			QueueDepth:  opts.QueueDepth,
		}))
	}
	if opts.BuildTimeout > 0 {
		srv.SetBuildTimeout(opts.BuildTimeout)
	}
	return sys, nil
}

// Close stops the background loops (the scrubber), then flushes and
// detaches the persistent image store, if any.  The system remains
// usable afterwards but stops persisting.
func (s *System) Close() error {
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil
	return s.Srv.CloseStore()
}

// FlushStore persists the image store's index without detaching it.
func (s *System) FlushStore() error { return s.Srv.FlushStore() }

// Define stores a program meta-object from blueprint source.
func (s *System) Define(path, blueprint string) error {
	return s.Srv.Define(path, blueprint)
}

// DefineLibrary stores a library-class meta-object.
func (s *System) DefineLibrary(path, blueprint string) error {
	return s.Srv.DefineLibrary(path, blueprint)
}

// PutObject stores a relocatable object in the namespace.
func (s *System) PutObject(path string, o *obj.Object) error {
	return s.Srv.PutObject(path, o)
}

// CompileC compiles mini-C source and stores the resulting objects
// under dir (one object per function plus a globals object), returning
// the stored paths.
func (s *System) CompileC(dir, unit, src string) ([]string, error) {
	objs, err := minic.Compile(src, minic.Options{Unit: unit})
	if err != nil {
		return nil, err
	}
	var paths []string
	for i, o := range objs {
		p := fmt.Sprintf("%s/%s.%d.o", dir, unit, i)
		if err := s.Srv.PutObject(p, o); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Assemble assembles source text and stores the object at path.
func (s *System) Assemble(path, src string) error {
	o, err := asm.Assemble(path, src)
	if err != nil {
		return err
	}
	return s.Srv.PutObject(path, o)
}

// List returns namespace paths under a prefix.
func (s *System) List(prefix string) []string { return s.Srv.List(prefix) }

// RunResult reports a completed program execution.
type RunResult struct {
	ExitCode uint64
	Output   string
	// Clock is the process's simulated time accounting.
	Clock osim.Clock
	// TextPages is the number of distinct executable pages touched.
	TextPages int
	// Trace holds monitoring events if the image was instrumented.
	Trace []uint64
}

// Run instantiates and executes the named program meta-object through
// the integrated exec path and returns its result.  Faults are
// symbolized against the image's bound symbol table (the seed of the
// paper's planned gdb/OMOS integration, §4.1).
func (s *System) Run(name string, args []string) (*RunResult, error) {
	res, err := s.runWith(func() (*osim.Process, error) {
		return s.RT.ExecIntegrated(name, args)
	})
	if err != nil {
		var f *vm.Fault
		if errors.As(err, &f) {
			if inst, ierr := s.Srv.Instantiate(name, nil); ierr == nil {
				if sym, off, owner, ok := inst.SymbolAt(f.PC); ok {
					return nil, fmt.Errorf("%w (pc in %s+%#x, image %s)", err, sym, off, owner)
				}
			}
		}
		return nil, err
	}
	return res, nil
}

// RunBootstrap executes the program through the bootstrap loader (an
// IPC round trip to the server), as on systems where OMOS is not
// integrated with exec.
func (s *System) RunBootstrap(name string, args []string) (*RunResult, error) {
	return s.runWith(func() (*osim.Process, error) {
		return s.RT.ExecBootstrap(name, args)
	})
}

func (s *System) runWith(launch func() (*osim.Process, error)) (*RunResult, error) {
	p, err := launch()
	if err != nil {
		return nil, err
	}
	code, err := s.Kern.RunToExit(p)
	if err != nil {
		return nil, err
	}
	res := &RunResult{
		ExitCode:  code,
		Output:    p.Output.String(),
		Clock:     p.Clock,
		TextPages: p.AS.TouchedText,
		Trace:     p.Trace,
	}
	p.Release()
	return res, nil
}

// BuildPartialExec builds a partial-image executable (§4.2) for a
// program meta-object and installs it in the simulated filesystem.
func (s *System) BuildPartialExec(metaName, execPath string) error {
	return s.RT.BuildPartialExec(metaName, execPath)
}

// RunPartial executes a previously built partial-image executable.
func (s *System) RunPartial(execPath string, args []string) (*RunResult, error) {
	return s.runWith(func() (*osim.Process, error) {
		return s.RT.ExecPartial(execPath, args)
	})
}

// Symbols dynamically instantiates a meta-object and returns the bound
// values of the requested symbols — the §5 dynamic loading interface
// ("a list of symbols whose bound values are to be returned from
// OMOS").
func (s *System) Symbols(name string, symbols ...string) (map[string]uint64, error) {
	inst, err := s.Srv.Instantiate(name, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(symbols))
	for _, sym := range symbols {
		addr, ok := inst.Lookup(sym)
		if !ok {
			return nil, fmt.Errorf("omos: symbol %q not bound by %s", sym, name)
		}
		out[sym] = addr
	}
	return out, nil
}

// MemStats reports machine-wide physical memory statistics (sharing
// accounting).
func (s *System) MemStats() osim.MemStats { return s.Kern.FT.Stats() }
