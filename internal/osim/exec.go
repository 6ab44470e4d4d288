package osim

import (
	"fmt"

	"omos/internal/image"
)

// fileROSegs returns shared frame runs for the read-only segments of
// the executable file at path, materializing and caching them on first
// use.  This models the unified buffer cache: repeated execs of the
// same binary share text frames.  The returned slice parallels the
// file's read-only segments in order.
func (k *Kernel) fileROSegs(path string, f *image.ExecFile) ([]*FrameSeg, error) {
	if segs, ok := k.fileSegCache[path]; ok {
		return segs, nil
	}
	var segs []*FrameSeg
	for i := range f.Segments {
		s := &f.Segments[i]
		if s.Perm&image.PermW != 0 {
			continue
		}
		fs, err := k.FT.MakeFrameSeg(fmt.Sprintf("%s#%d", path, i), s.Addr, s.Data, s.MemSize, uint8(s.Perm))
		if err != nil {
			return nil, err
		}
		segs = append(segs, fs)
	}
	k.fileSegCache[path] = segs
	return segs, nil
}

// readExecFile reads and decodes an executable file, charging read,
// disk (cold only), and parse costs.  parseSys selects whether parse
// cost is charged as system time (native exec) or user time (the
// user-space dynamic linker parsing a library).
func (k *Kernel) readExecFile(p *Process, path string, parseSys bool) (*image.ExecFile, error) {
	data, hit, err := k.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !hit {
		p.ChargeWait(uint64(len(data)) * k.Cost.DiskPerByte)
	}
	f, err := image.DecodeExec(data)
	if err != nil {
		return nil, fmt.Errorf("osim: exec %s: %w", path, err)
	}
	parse := uint64(f.RecordCount())
	if parseSys {
		p.ChargeSys(parse * k.Cost.ExecParseRecord)
	} else {
		p.ChargeUser(parse * k.Cost.DynParseRecord)
	}
	return f, nil
}

// MapExecFile maps the file's segments into the process at delta
// displacement from their stored addresses: read-only segments share
// buffer-cache frames; writable segments get private copies.  Costs
// are charged as system time when sys is true (kernel exec) or user
// time otherwise (dynamic linker mapping a library).
func (k *Kernel) MapExecFile(p *Process, path string, f *image.ExecFile, delta uint64, sys bool) error {
	roSegs, err := k.fileROSegs(path, f)
	if err != nil {
		return err
	}
	ro := 0
	for i := range f.Segments {
		s := &f.Segments[i]
		if s.Perm&image.PermW == 0 {
			fs := roSegs[ro]
			ro++
			pages, err := p.AS.MapSharedAt(fs, s.Addr+delta)
			if err != nil {
				return err
			}
			n := uint64(pages) * k.Cost.MapPageShared
			if sys {
				p.ChargeSys(n)
			} else {
				p.ChargeUser(n)
			}
			continue
		}
		copied, zeroed, err := p.AS.MapPrivate(s.Addr+delta, s.Data, s.MemSize, s.Perm)
		if err != nil {
			return err
		}
		n := uint64(copied)*k.Cost.CopyPagePrivate + uint64(zeroed)*k.Cost.ZeroPage
		if sys {
			p.ChargeSys(n)
		} else {
			p.ChargeUser(n)
		}
	}
	return nil
}

// Exec is the general program-invocation entry point: it handles
// "#!" interpreter files — the mechanism the paper uses to export
// entries from the OMOS namespace into the Unix namespace ("#!
// /bin/omos" with the meta-object path as a parameter in the file,
// §5) — and falls through to ExecNative for ordinary executables.
// args are the program arguments (argv[0] is synthesized).
func (k *Kernel) Exec(p *Process, path string, args []string) (*image.ExecFile, error) {
	data, hit, err := k.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 2 && data[0] == '#' && data[1] == '!' {
		if !hit {
			p.ChargeWait(uint64(len(data)) * k.Cost.DiskPerByte)
		}
		end := len(data)
		for i, b := range data {
			if b == '\n' {
				end = i
				break
			}
		}
		fields := splitFields(string(data[2:end]))
		if len(fields) == 0 {
			return nil, fmt.Errorf("osim: exec %s: empty interpreter line", path)
		}
		argv := append(fields[1:], args...)
		return k.ExecNative(p, fields[0], argv)
	}
	return k.ExecNative(p, path, append([]string{path}, args...))
}

func splitFields(s string) []string {
	var out []string
	cur := ""
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' || s[i] == '\t' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(s[i])
	}
	return out
}

// ExecNative is the traditional exec path: read the executable file,
// parse its headers (charged per record — the work the paper's
// integrated exec avoids), map the segments, and set up the initial
// thread.  If the file needs shared libraries, the caller (the dynlink
// package) must link them before Run.  Returns the decoded file.
func (k *Kernel) ExecNative(p *Process, path string, args []string) (*image.ExecFile, error) {
	p.ChargeSys(k.Cost.ExecBase)
	f, err := k.readExecFile(p, path, true)
	if err != nil {
		return nil, err
	}
	if f.Shared {
		return nil, fmt.Errorf("osim: exec %s: is a shared object", path)
	}
	if err := k.MapExecFile(p, path, f, 0, true); err != nil {
		return nil, err
	}
	if err := p.SetupStack(args); err != nil {
		return nil, err
	}
	p.CPU.PC = f.Entry
	return f, nil
}

// LoadLibraryFile maps a shared library file for the dynamic linker:
// read + parse (user time, like ld.so), then map at base (the file's
// preferred base for non-PIC, or an mmap-area address for PIC).
// Returns the decoded file and the load delta.
func (k *Kernel) LoadLibraryFile(p *Process, path string, base uint64) (*image.ExecFile, uint64, error) {
	f, err := k.readExecFile(p, path, false)
	if err != nil {
		return nil, 0, err
	}
	var delta uint64
	if f.PIC && base != 0 {
		delta = base - lowAddrOf(f.Segments)
	}
	if err := k.MapExecFile(p, path, f, delta, false); err != nil {
		return nil, 0, err
	}
	return f, delta, nil
}

// lowAddr returns the lowest segment address (the image's preferred base).
func lowAddrOf(segs []image.Segment) uint64 {
	lo := ^uint64(0)
	for i := range segs {
		if segs[i].Addr < lo {
			lo = segs[i].Addr
		}
	}
	if lo == ^uint64(0) {
		lo = 0
	}
	return lo
}

// DefaultStepBudget bounds process execution in RunToExit; it is far
// above any workload in this repository and exists to turn runaway
// loops into errors rather than hangs.
const DefaultStepBudget = 200_000_000

// RunToExit runs the process to completion and returns its exit code.
func (k *Kernel) RunToExit(p *Process) (uint64, error) {
	if err := k.Run(p, DefaultStepBudget); err != nil {
		return 0, err
	}
	if !p.Exited {
		return 0, fmt.Errorf("osim: process %d stopped without exiting (pc=%#x)", p.PID, p.CPU.PC)
	}
	return p.ExitCode, nil
}
