package osim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"omos/internal/image"
	"omos/internal/vm"
)

// Syscall numbers (SYS instruction immediates).
const (
	SysExit    = 1  // R1=code
	SysWrite   = 2  // R1=fd R2=buf R3=len -> R0=n
	SysRead    = 3  // R1=fd R2=buf R3=len -> R0=n
	SysOpen    = 4  // R1=path(cstr) R2=flags(1=create/write) -> R0=fd or -1
	SysClose   = 5  // R1=fd
	SysReaddir = 6  // R1=fd R2=buf R3=max -> R0=len of next name (0=end)
	SysStat    = 7  // R1=path(cstr) R2=statbuf(24B: size,kind,mode) -> R0=0/-1
	SysBrk     = 8  // R1=new break (0 queries) -> R0=break
	SysDynload = 9  // R1=libname(cstr) -> R0=handle table addr (partial-image)
	SysResolve = 10 // lazy binding trap; dynlink runtime handles
	SysLog     = 11 // R1=event id (monitoring hook)
	SysIPC     = 12 // R1=port R2=req R3=reqlen R4=rep R5=repmax -> R0=replen
)

// Stack layout constants.
const (
	StackTop   = uint64(0x7FFF_F000)
	StackSize  = uint64(64 * 1024)
	HeapBase   = uint64(0x6000_0000)
	MMapBase   = uint64(0x2000_0000) // dynamic library mapping area
	maxCString = 4096
)

// Handlers are the kernel's upcall hooks.  They decouple osim from the
// server, loader, and dynamic-linker packages (which import osim).
type Handlers struct {
	// Dynload services SysDynload: load the named library into the
	// process and return the address of its function hash table
	// (partial-image scheme, §4.2).
	Dynload func(p *Process, name string) (uint64, error)
	// Resolve services SysResolve: the lazy binding trap.  It reads
	// RegIdx, patches the GOT slot, and sets RegLnk to the target.
	Resolve func(p *Process) error
	// IPC services SysIPC: a message round trip to a server port.
	IPC func(p *Process, port uint64, req []byte) ([]byte, error)
}

// Kernel is the simulated operating system instance.
type Kernel struct {
	FT   *FrameTable
	FS   *FS
	Cost CostModel
	// Total accumulates the clocks of all completed processes plus
	// kernel-side work not attributable to a live process.  Guarded by
	// totalMu: concurrent OMOS clients release processes and persist
	// images in parallel, so mutate it only through AddTotal /
	// ChargeTotalServer and read it through TotalClock.
	Total   Clock
	totalMu sync.Mutex
	// Hooks are the registered upcall handlers.
	Hooks Handlers

	// nextPID is advanced atomically: concurrent clients spawn
	// processes in parallel.
	nextPID int64
	// fileSegCache is the buffer cache of file-backed read-only
	// segments: path -> per-segment frame runs.  It is what lets
	// repeated execs of the same binary share text, as a real unified
	// buffer cache does.
	fileSegCache map[string][]*FrameSeg
}

// NewKernel boots a kernel with an empty filesystem and default costs.
func NewKernel() *Kernel {
	return &Kernel{
		FT:           NewFrameTable(),
		FS:           NewFS(),
		Cost:         DefaultCost(),
		fileSegCache: make(map[string][]*FrameSeg),
	}
}

// fdKind distinguishes open file descriptor types.
type fdKind uint8

const (
	fdConsole fdKind = iota
	fdFile
	fdDir
)

type fdesc struct {
	kind    fdKind
	path    string
	data    []byte
	off     int
	entries []string
	entryIx int
	write   bool
	dirty   bool
}

// Process is one simulated task.
type Process struct {
	PID   int
	Kern  *Kernel
	AS    *AddressSpace
	CPU   *vm.CPU
	Clock Clock

	// Output captures console writes (fds 1 and 2).
	Output bytes.Buffer
	// Trace records SysLog events (monitoring).
	Trace []uint64
	// Dyn carries dynamic-linker state; owned by the dynlink package.
	Dyn interface{}
	// Loader carries loader state (partial-image tables); owned by the
	// loader package.
	Loader interface{}

	fds      map[int]*fdesc
	nextFD   int
	brk      uint64
	brkEnd   uint64 // page-aligned end of mapped heap
	nextMMap uint64

	Exited   bool
	ExitCode uint64
}

// Spawn creates an empty process (task), charging creation cost.
func (k *Kernel) Spawn() *Process {
	p := &Process{
		PID:      int(atomic.AddInt64(&k.nextPID, 1)),
		Kern:     k,
		AS:       NewAddressSpace(k.FT),
		fds:      map[int]*fdesc{0: {kind: fdConsole}, 1: {kind: fdConsole}, 2: {kind: fdConsole}},
		nextFD:   3,
		brk:      HeapBase,
		brkEnd:   HeapBase,
		nextMMap: MMapBase,
	}
	p.CPU = vm.New(p.AS, p)
	p.AS.OnTextTouch = func() { p.ChargeSys(k.Cost.TextFault) }
	p.Clock.Sys += k.Cost.ProcSpawn
	return p
}

// Release tears down the process address space and folds its clock
// into the kernel total.
func (p *Process) Release() {
	p.AS.Destroy()
	p.Kern.AddTotal(p.Clock)
}

// AddTotal folds a clock into the kernel total.  Safe for concurrent
// use (concurrent clients release processes in parallel).
func (k *Kernel) AddTotal(c Clock) {
	k.totalMu.Lock()
	k.Total.Add(c)
	k.totalMu.Unlock()
}

// ChargeTotalServer adds server cycles not attributable to a live
// process (e.g. persistent-store I/O).  Safe for concurrent use.
func (k *Kernel) ChargeTotalServer(n uint64) {
	k.totalMu.Lock()
	k.Total.Server += n
	k.totalMu.Unlock()
}

// TotalClock returns a snapshot of the accumulated kernel total.
func (k *Kernel) TotalClock() Clock {
	k.totalMu.Lock()
	defer k.totalMu.Unlock()
	return k.Total
}

// charge helpers.  The Charge* methods are atomic adds: during a
// concurrent instantiation the server's worker pool charges library
// build cycles to the requesting process from several goroutines.
func (p *Process) ChargeSys(n uint64) { atomic.AddUint64(&p.Clock.Sys, n) }

// ChargeUser adds user-mode cycles.
func (p *Process) ChargeUser(n uint64) { atomic.AddUint64(&p.Clock.User, n) }

// ChargeServer adds OMOS server cycles.
func (p *Process) ChargeServer(n uint64) { atomic.AddUint64(&p.Clock.Server, n) }

// ChargeWait adds I/O wait cycles.
func (p *Process) ChargeWait(n uint64) { atomic.AddUint64(&p.Clock.Wait, n) }

// MapSharedSegs maps cached frame segments, charging PTE-insert costs
// to the given clock component ("sys" for kernel exec, "server" for
// OMOS mappings).
func (p *Process) MapSharedSegs(segs []*FrameSeg, server bool) error {
	for _, s := range segs {
		pages, err := p.AS.MapShared(s)
		if err != nil {
			return err
		}
		n := uint64(pages) * p.Kern.Cost.MapPageShared
		if server {
			p.ChargeServer(n + p.Kern.Cost.ServerMapSegment)
		} else {
			p.ChargeSys(n)
		}
	}
	return nil
}

// MapPrivateBytes maps a private copy of data at addr, charging copy
// and zero-fill costs.
func (p *Process) MapPrivateBytes(addr uint64, data []byte, memSize uint64, perm image.Perm, server bool) error {
	copied, zeroed, err := p.AS.MapPrivate(addr, data, memSize, perm)
	if err != nil {
		return err
	}
	n := uint64(copied)*p.Kern.Cost.CopyPagePrivate + uint64(zeroed)*p.Kern.Cost.ZeroPage
	if server {
		p.ChargeServer(n)
	} else {
		p.ChargeSys(n)
	}
	return nil
}

// SetupStack maps the stack and writes argv; SP and arg registers are
// initialized (R1=argc, R2=argv).
func (p *Process) SetupStack(args []string) error {
	base := StackTop - StackSize
	if err := p.MapPrivateBytes(base, nil, StackSize, image.PermR|image.PermW, false); err != nil {
		return err
	}
	// Lay out: [argv pointer array][strings...] growing down from top.
	cur := StackTop
	ptrs := make([]uint64, len(args))
	for i := len(args) - 1; i >= 0; i-- {
		b := append([]byte(args[i]), 0)
		cur -= uint64(len(b))
		if err := p.AS.Poke(cur, b); err != nil {
			return err
		}
		ptrs[i] = cur
	}
	cur &^= 7 // align
	for i := len(ptrs) - 1; i >= 0; i-- {
		cur -= 8
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], ptrs[i])
		if err := p.AS.Poke(cur, w[:]); err != nil {
			return err
		}
	}
	argv := cur
	cur -= cur % 16
	p.CPU.R[vm.RegSP] = cur
	p.CPU.R[vm.RegArg0] = uint64(len(args))
	p.CPU.R[vm.RegArg1] = argv
	return nil
}

// AllocMMap reserves a page-aligned region of the mmap area (used by
// the dynamic linker to place libraries) and returns its base.
func (p *Process) AllocMMap(size uint64) uint64 {
	base := p.nextMMap
	p.nextMMap += PageAlign(size) + PageSize // guard page gap
	return base
}

// Run executes the process until exit, fault, or step limit.  User
// time is charged from the CPU's step counter.
func (k *Kernel) Run(p *Process, maxSteps uint64) error {
	err := p.CPU.Run(maxSteps)
	p.Clock.User += p.CPU.Steps
	p.CPU.Steps = 0
	if err != nil && !p.Exited {
		return err
	}
	return nil
}

// Syscall implements vm.SyscallHandler.
func (p *Process) Syscall(cpu *vm.CPU, num uint64) error {
	c := &p.Kern.Cost
	p.ChargeSys(c.SyscallBase)
	switch num {
	case SysExit:
		p.Exited = true
		p.ExitCode = cpu.R[vm.RegArg0]
		return vm.ErrHalt

	case SysWrite:
		fd := int(cpu.R[vm.RegArg0])
		addr, n := cpu.R[vm.RegArg1], cpu.R[vm.RegArg2]
		f, ok := p.fds[fd]
		if !ok {
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		buf := make([]byte, n)
		if err := p.AS.Read(addr, buf); err != nil {
			return err
		}
		p.ChargeSys(n * c.WritePerByte)
		switch f.kind {
		case fdConsole:
			p.Output.Write(buf)
		case fdFile:
			if !f.write {
				cpu.R[vm.RegRet] = ^uint64(0)
				return nil
			}
			f.data = append(f.data, buf...)
			f.dirty = true
		default:
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		cpu.R[vm.RegRet] = n
		return nil

	case SysRead:
		fd := int(cpu.R[vm.RegArg0])
		addr, n := cpu.R[vm.RegArg1], cpu.R[vm.RegArg2]
		f, ok := p.fds[fd]
		if !ok || f.kind != fdFile {
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		avail := len(f.data) - f.off
		if avail <= 0 {
			cpu.R[vm.RegRet] = 0
			return nil
		}
		if uint64(avail) < n {
			n = uint64(avail)
		}
		if err := p.AS.Write(addr, f.data[f.off:f.off+int(n)]); err != nil {
			return err
		}
		f.off += int(n)
		p.ChargeSys(n * c.ReadPerByte)
		cpu.R[vm.RegRet] = n
		return nil

	case SysOpen:
		pathStr, err := cpu.ReadCString(cpu.R[vm.RegArg0], maxCString)
		if err != nil {
			return err
		}
		flags := cpu.R[vm.RegArg1]
		p.ChargeSys(c.OpenCost)
		cpu.R[vm.RegRet] = uint64(p.openPath(pathStr, flags&1 != 0))
		return nil

	case SysClose:
		fd := int(cpu.R[vm.RegArg0])
		f, ok := p.fds[fd]
		if ok && f.kind == fdFile && f.dirty {
			if err := p.Kern.FS.WriteFile(f.path, f.data); err != nil {
				return err
			}
		}
		delete(p.fds, fd)
		cpu.R[vm.RegRet] = 0
		return nil

	case SysReaddir:
		fd := int(cpu.R[vm.RegArg0])
		addr, max := cpu.R[vm.RegArg1], cpu.R[vm.RegArg2]
		f, ok := p.fds[fd]
		if !ok || f.kind != fdDir {
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		if f.entryIx >= len(f.entries) {
			cpu.R[vm.RegRet] = 0
			return nil
		}
		name := f.entries[f.entryIx]
		f.entryIx++
		p.ChargeSys(c.ReaddirPerEntry)
		b := append([]byte(name), 0)
		if uint64(len(b)) > max {
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		if err := p.AS.Write(addr, b); err != nil {
			return err
		}
		cpu.R[vm.RegRet] = uint64(len(name))
		return nil

	case SysStat:
		pathStr, err := cpu.ReadCString(cpu.R[vm.RegArg0], maxCString)
		if err != nil {
			return err
		}
		p.ChargeSys(c.StatCost)
		st, serr := p.Kern.FS.Stat(pathStr)
		if serr != nil {
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		var buf [24]byte
		binary.LittleEndian.PutUint64(buf[0:], st.Size)
		binary.LittleEndian.PutUint64(buf[8:], uint64(st.Kind))
		binary.LittleEndian.PutUint64(buf[16:], uint64(st.Mode))
		if err := p.AS.Write(cpu.R[vm.RegArg1], buf[:]); err != nil {
			return err
		}
		cpu.R[vm.RegRet] = 0
		return nil

	case SysBrk:
		want := cpu.R[vm.RegArg0]
		if want == 0 {
			cpu.R[vm.RegRet] = p.brk
			return nil
		}
		if want < p.brk {
			cpu.R[vm.RegRet] = p.brk // shrinking not supported
			return nil
		}
		newEnd := PageAlign(want)
		if newEnd > p.brkEnd {
			if err := p.MapPrivateBytes(p.brkEnd, nil, newEnd-p.brkEnd, image.PermR|image.PermW, false); err != nil {
				return err
			}
			p.brkEnd = newEnd
		}
		p.brk = want
		cpu.R[vm.RegRet] = p.brk
		return nil

	case SysDynload:
		if p.Kern.Hooks.Dynload == nil {
			return errors.New("osim: no dynload handler registered")
		}
		name, err := cpu.ReadCString(cpu.R[vm.RegArg0], maxCString)
		if err != nil {
			return err
		}
		addr, err := p.Kern.Hooks.Dynload(p, name)
		if err != nil {
			return fmt.Errorf("osim: dynload %q: %w", name, err)
		}
		cpu.R[vm.RegRet] = addr
		return nil

	case SysResolve:
		if p.Kern.Hooks.Resolve == nil {
			return errors.New("osim: no resolve handler registered")
		}
		return p.Kern.Hooks.Resolve(p)

	case SysLog:
		p.Trace = append(p.Trace, cpu.R[vm.RegArg0])
		cpu.R[vm.RegRet] = 0
		return nil

	case SysIPC:
		if p.Kern.Hooks.IPC == nil {
			return errors.New("osim: no IPC handler registered")
		}
		port := cpu.R[vm.RegArg0]
		reqAddr, reqLen := cpu.R[vm.RegArg1], cpu.R[vm.RegArg2]
		repAddr, repMax := cpu.R[vm.RegArg3], cpu.R[vm.RegArg4]
		req := make([]byte, reqLen)
		if err := p.AS.Read(reqAddr, req); err != nil {
			return err
		}
		p.ChargeSys(c.IPCRoundTrip + (reqLen)*c.IPCPerByte)
		rep, err := p.Kern.Hooks.IPC(p, port, req)
		if err != nil {
			return fmt.Errorf("osim: ipc: %w", err)
		}
		if uint64(len(rep)) > repMax {
			cpu.R[vm.RegRet] = ^uint64(0)
			return nil
		}
		p.ChargeSys(uint64(len(rep)) * c.IPCPerByte)
		if err := p.AS.Write(repAddr, rep); err != nil {
			return err
		}
		cpu.R[vm.RegRet] = uint64(len(rep))
		return nil
	}
	return fmt.Errorf("osim: unknown syscall %d", num)
}

func (p *Process) openPath(pathStr string, create bool) int {
	fs := p.Kern.FS
	st, err := fs.Stat(pathStr)
	if err != nil {
		if !create {
			return -1
		}
		if werr := fs.WriteFile(pathStr, nil); werr != nil {
			return -1
		}
		st, _ = fs.Stat(pathStr)
	}
	fd := p.nextFD
	p.nextFD++
	switch st.Kind {
	case KindDir:
		entries, err := fs.ReadDir(pathStr)
		if err != nil {
			return -1
		}
		p.fds[fd] = &fdesc{kind: fdDir, path: pathStr, entries: entries}
	default:
		if create {
			p.fds[fd] = &fdesc{kind: fdFile, path: pathStr, write: true}
			return fd
		}
		data, hit, err := fs.ReadFile(pathStr)
		if err != nil {
			return -1
		}
		if !hit {
			p.ChargeWait(uint64(len(data)) * p.Kern.Cost.DiskPerByte)
		}
		p.fds[fd] = &fdesc{kind: fdFile, path: pathStr, data: append([]byte(nil), data...)}
	}
	return fd
}
