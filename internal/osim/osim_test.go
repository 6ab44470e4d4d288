package osim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"omos/internal/image"
	"omos/internal/vm"
)

func TestAddressSpacePermissions(t *testing.T) {
	ft := NewFrameTable()
	as := NewAddressSpace(ft)
	if _, _, err := as.MapPrivate(0x1000, []byte{1, 2, 3}, 4096, image.PermR); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := as.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("read = %v", buf)
	}
	if err := as.Write(0x1000, []byte{9}); err == nil {
		t.Fatal("write to read-only page succeeded")
	}
	if err := as.Fetch(0x1000, buf); err == nil {
		t.Fatal("fetch from non-executable page succeeded")
	}
	// Poke bypasses protection (kernel patching).
	if err := as.Poke(0x1000, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := as.Read(0x1000, buf); err != nil || buf[0] != 9 {
		t.Fatalf("poke not visible: %v %v", buf, err)
	}
	// Unmapped access.
	if err := as.Read(0x9000, buf); err == nil {
		t.Fatal("unmapped read succeeded")
	}
}

func TestAddressSpaceCrossPage(t *testing.T) {
	ft := NewFrameTable()
	as := NewAddressSpace(ft)
	if _, _, err := as.MapPrivate(0, nil, 3*PageSize, image.PermR|image.PermW); err != nil {
		t.Fatal(err)
	}
	// Property: any write followed by a read at the same range returns
	// the data, regardless of page-boundary straddling.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		off := uint64(r.Intn(2*PageSize + 100))
		n := r.Intn(PageSize) + 1
		if off+uint64(n) > 3*PageSize {
			return true
		}
		data := make([]byte, n)
		r.Read(data)
		if err := as.Write(off, data); err != nil {
			return false
		}
		back := make([]byte, n)
		if err := as.Read(off, back); err != nil {
			return false
		}
		for i := range data {
			if data[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSharingAccounting(t *testing.T) {
	ft := NewFrameTable()
	seg, err := ft.MakeFrameSeg("lib", 0x10000, make([]byte, 2*PageSize), 2*PageSize, uint8(image.PermR|image.PermX))
	if err != nil {
		t.Fatal(err)
	}
	as1 := NewAddressSpace(ft)
	as2 := NewAddressSpace(ft)
	if _, err := as1.MapShared(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := as2.MapShared(seg); err != nil {
		t.Fatal(err)
	}
	st := ft.Stats()
	if st.Frames != 2 || st.SharedFrames != 2 || st.SharedSavings != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// Double-mapping the same page must fail, not corrupt.
	if _, err := as1.MapShared(seg); err == nil {
		t.Fatal("double map succeeded")
	}
	as1.Destroy()
	as2.Destroy()
	st = ft.Stats()
	if st.Frames != 2 || st.SharedFrames != 0 {
		t.Fatalf("after destroy: %+v", st)
	}
	ft.Release(seg)
	if got := ft.Stats().Frames; got != 0 {
		t.Fatalf("frames leaked: %d", got)
	}
}

func TestMapSharedAtRebased(t *testing.T) {
	ft := NewFrameTable()
	data := []byte{0xAA, 0xBB}
	seg, err := ft.MakeFrameSeg("pic", 0x10000, data, PageSize, uint8(image.PermR))
	if err != nil {
		t.Fatal(err)
	}
	as := NewAddressSpace(ft)
	if _, err := as.MapSharedAt(seg, 0x40000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := as.Read(0x40000, buf); err != nil || buf[0] != 0xAA {
		t.Fatalf("rebased read: %v %v", buf, err)
	}
	if _, err := as.MapSharedAt(seg, 0x40001); err == nil {
		t.Fatal("unaligned rebase accepted")
	}
}

func TestFS(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/a/b/c.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	data, hit, err := fs.ReadFile("/a/b/c.txt")
	if err != nil || string(data) != "hi" {
		t.Fatalf("read: %q %v", data, err)
	}
	if !hit {
		t.Fatal("freshly written file should be cached")
	}
	fs.DropCaches()
	_, hit, _ = fs.ReadFile("/a/b/c.txt")
	if hit {
		t.Fatal("dropped cache still hit")
	}
	_, hit, _ = fs.ReadFile("/a/b/c.txt")
	if !hit {
		t.Fatal("second read should hit")
	}
	st, err := fs.Stat("/a/b")
	if err != nil || st.Kind != KindDir {
		t.Fatalf("stat dir: %+v %v", st, err)
	}
	names, err := fs.ReadDir("/a/b")
	if err != nil || len(names) != 1 || names[0] != "c.txt" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if fs.Exists("/nope") {
		t.Fatal("phantom file")
	}
	if err := fs.Remove("/a/b"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := fs.Remove("/a/b/c.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	// Writing over a directory fails.
	if err := fs.WriteFile("/a", []byte("x")); err == nil {
		t.Fatal("overwrote a directory")
	}
}

// asmRun assembles a raw instruction stream into a process and runs it.
func asmRun(t *testing.T, k *Kernel, code []vm.Inst, args []string) *Process {
	t.Helper()
	var buf []byte
	for _, in := range code {
		buf = in.Encode(buf)
	}
	p := k.Spawn()
	if err := p.MapPrivateBytes(0x1000, buf, uint64(len(buf)), image.PermR|image.PermX, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetupStack(args); err != nil {
		t.Fatal(err)
	}
	p.CPU.PC = 0x1000
	if _, err := k.RunToExit(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSyscallWriteAndExit(t *testing.T) {
	k := NewKernel()
	// Write "ok" from the stack region, then exit 5.
	p := k.Spawn()
	code := []vm.Inst{
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 1},      // fd
		{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 0x3000}, // buf
		{Op: vm.MOVI, Ra: vm.RegArg2, Imm: 2},      // len
		{Op: vm.SYS, Imm: SysWrite},
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 5},
		{Op: vm.SYS, Imm: SysExit},
	}
	var buf []byte
	for _, in := range code {
		buf = in.Encode(buf)
	}
	if err := p.MapPrivateBytes(0x1000, buf, uint64(len(buf)), image.PermR|image.PermX, false); err != nil {
		t.Fatal(err)
	}
	if err := p.MapPrivateBytes(0x3000, []byte("ok"), 4096, image.PermR, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetupStack(nil); err != nil {
		t.Fatal(err)
	}
	p.CPU.PC = 0x1000
	code2, err := k.RunToExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if code2 != 5 || p.Output.String() != "ok" {
		t.Fatalf("exit=%d out=%q", code2, p.Output.String())
	}
}

func TestSyscallBrk(t *testing.T) {
	k := NewKernel()
	p := asmRun(t, k, []vm.Inst{
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0},
		{Op: vm.SYS, Imm: SysBrk}, // query
		{Op: vm.MOV, Ra: 7, Rb: 0},
		{Op: vm.ADDI, Ra: vm.RegArg0, Rb: 7, Imm: 100},
		{Op: vm.SYS, Imm: SysBrk},           // grow
		{Op: vm.ST, Ra: 7, Rb: 7, Imm: 50},  // store inside new heap
		{Op: vm.LD, Ra: 6, Rb: 7, Imm: 50},  // load back
		{Op: vm.MOV, Ra: vm.RegArg0, Rb: 6}, // should be heap base
		{Op: vm.SYS, Imm: SysExit},
	}, nil)
	if p.ExitCode != HeapBase {
		t.Fatalf("heap round trip = %#x, want %#x", p.ExitCode, HeapBase)
	}
}

func TestArgvLayout(t *testing.T) {
	k := NewKernel()
	// exit(argc) with argv check: load argv[1][0].
	p := asmRun(t, k, []vm.Inst{
		{Op: vm.LD, Ra: 3, Rb: vm.RegArg1, Imm: 8}, // argv[1]
		{Op: vm.LD8, Ra: 4, Rb: 3, Imm: 0},         // argv[1][0]
		{Op: vm.MOV, Ra: vm.RegArg0, Rb: 4},
		{Op: vm.SYS, Imm: SysExit},
	}, []string{"prog", "xyz"})
	if p.ExitCode != 'x' {
		t.Fatalf("argv[1][0] = %c", rune(p.ExitCode))
	}
}

func TestTextFaultAccounting(t *testing.T) {
	k := NewKernel()
	p := asmRun(t, k, []vm.Inst{
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0},
		{Op: vm.SYS, Imm: SysExit},
	}, nil)
	if p.AS.TouchedText != 1 {
		t.Fatalf("touched pages = %d, want 1", p.AS.TouchedText)
	}
}

func TestBufferCacheCosts(t *testing.T) {
	k := NewKernel()
	body := make([]byte, 3*PageSize)
	if err := k.FS.WriteFile("/f", body); err != nil {
		t.Fatal(err)
	}
	k.FS.DropCaches()
	open := func() *Process {
		p := asmRun(t, k, []vm.Inst{
			{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0x3000},
			{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 0},
			{Op: vm.SYS, Imm: SysOpen},
			{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0},
			{Op: vm.SYS, Imm: SysExit},
		}, nil)
		return p
	}
	// Path string must be readable: map it first — easier to use a
	// helper process layout.  Spawn manually:
	_ = open
	p1 := k.Spawn()
	mapPath(t, p1, "/f")
	runOpen(t, k, p1)
	cold := p1.Clock.Wait
	p2 := k.Spawn()
	mapPath(t, p2, "/f")
	runOpen(t, k, p2)
	if cold == 0 {
		t.Fatal("first open should pay disk wait")
	}
	if p2.Clock.Wait != 0 {
		t.Fatalf("second open paid disk wait %d", p2.Clock.Wait)
	}
}

func mapPath(t *testing.T, p *Process, path string) {
	t.Helper()
	if err := p.MapPrivateBytes(0x3000, append([]byte(path), 0), 4096, image.PermR, false); err != nil {
		t.Fatal(err)
	}
}

func runOpen(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	code := []vm.Inst{
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0x3000},
		{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 0},
		{Op: vm.SYS, Imm: SysOpen},
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0},
		{Op: vm.SYS, Imm: SysExit},
	}
	var buf []byte
	for _, in := range code {
		buf = in.Encode(buf)
	}
	if err := p.MapPrivateBytes(0x1000, buf, uint64(len(buf)), image.PermR|image.PermX, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetupStack(nil); err != nil {
		t.Fatal(err)
	}
	p.CPU.PC = 0x1000
	if _, err := k.RunToExit(p); err != nil {
		t.Fatal(err)
	}
}

func TestExecFileSegCacheSharing(t *testing.T) {
	k := NewKernel()
	f := &image.ExecFile{Image: image.Image{
		Name:  "prog",
		Entry: 0x1000,
		Segments: []image.Segment{
			{Name: "text", Addr: 0x1000, Data: exitProg(), MemSize: PageSize, Perm: image.PermR | image.PermX},
			{Name: "data", Addr: 0x10000, Data: []byte{1}, MemSize: PageSize, Perm: image.PermR | image.PermW},
		},
	}}
	enc, err := image.EncodeExec(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile("/bin/p", enc); err != nil {
		t.Fatal(err)
	}
	p1 := k.Spawn()
	if _, err := k.ExecNative(p1, "/bin/p", nil); err != nil {
		t.Fatal(err)
	}
	p2 := k.Spawn()
	if _, err := k.ExecNative(p2, "/bin/p", nil); err != nil {
		t.Fatal(err)
	}
	if st := k.FT.Stats(); st.SharedFrames == 0 {
		t.Fatal("text frames should be shared via the buffer cache")
	}
	for _, p := range []*Process{p1, p2} {
		if code, err := k.RunToExit(p); err != nil || code != 7 {
			t.Fatalf("exec run: %d %v", code, err)
		}
	}
}

func exitProg() []byte {
	var buf []byte
	buf = vm.Inst{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 7}.Encode(buf)
	buf = vm.Inst{Op: vm.SYS, Imm: SysExit}.Encode(buf)
	return buf
}

func TestPageAlign(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 1: PageSize, PageSize: PageSize, PageSize + 1: 2 * PageSize}
	for in, want := range cases {
		if got := PageAlign(in); got != want {
			t.Errorf("PageAlign(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestExecHashbang(t *testing.T) {
	k := NewKernel()
	// Install a real executable and a #! file pointing at it.
	f := &image.ExecFile{Image: image.Image{
		Name:  "inner",
		Entry: 0x1000,
		Segments: []image.Segment{
			{Name: "text", Addr: 0x1000, Data: argvProg(), MemSize: PageSize, Perm: image.PermR | image.PermX},
		},
	}}
	enc, err := image.EncodeExec(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile("/bin/inner", enc); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile("/bin/script", []byte("#!/bin/inner extra-arg\nignored body\n")); err != nil {
		t.Fatal(err)
	}
	p := k.Spawn()
	if _, err := k.Exec(p, "/bin/script", []string{"user-arg"}); err != nil {
		t.Fatal(err)
	}
	code, err := k.RunToExit(p)
	if err != nil {
		t.Fatal(err)
	}
	// The program exits with argv[0][0]: the interpreter arg comes
	// first, then the user args.
	if code != 'e' {
		t.Fatalf("argv[0][0] = %c, want e (extra-arg)", rune(code))
	}

	// Errors: missing interpreter, empty #! line, missing file.
	if err := k.FS.WriteFile("/bin/bad1", []byte("#!\n")); err != nil {
		t.Fatal(err)
	}
	p2 := k.Spawn()
	if _, err := k.Exec(p2, "/bin/bad1", nil); err == nil {
		t.Fatal("empty interpreter accepted")
	}
	if err := k.FS.WriteFile("/bin/bad2", []byte("#!/no/such/interp\n")); err != nil {
		t.Fatal(err)
	}
	p3 := k.Spawn()
	if _, err := k.Exec(p3, "/bin/bad2", nil); err == nil {
		t.Fatal("missing interpreter accepted")
	}
	p4 := k.Spawn()
	if _, err := k.Exec(p4, "/no/file", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// argvProg exits with argv[0][0].
func argvProg() []byte {
	var buf []byte
	buf = vm.Inst{Op: vm.LD, Ra: 3, Rb: vm.RegArg1, Imm: 0}.Encode(buf) // argv[0]
	buf = vm.Inst{Op: vm.LD8, Ra: 4, Rb: 3, Imm: 0}.Encode(buf)         // argv[0][0]
	buf = vm.Inst{Op: vm.MOV, Ra: vm.RegArg0, Rb: 4}.Encode(buf)
	buf = vm.Inst{Op: vm.SYS, Imm: SysExit}.Encode(buf)
	return buf
}

func TestFileReadWriteSyscalls(t *testing.T) {
	k := NewKernel()
	if err := k.FS.WriteFile("/in", []byte("AB")); err != nil {
		t.Fatal(err)
	}
	// open /in, read 2 bytes to 0x5000, open /out create, write those
	// bytes, close both, exit first byte.
	p := k.Spawn()
	mustMap := func(addr uint64, data []byte, perm image.Perm) {
		if err := p.MapPrivateBytes(addr, data, PageSize, perm, false); err != nil {
			t.Fatal(err)
		}
	}
	mustMap(0x3000, append([]byte("/in"), 0), image.PermR)
	mustMap(0x4000, append([]byte("/out"), 0), image.PermR)
	mustMap(0x5000, nil, image.PermR|image.PermW)
	code := []vm.Inst{
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0x3000},
		{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 0},
		{Op: vm.SYS, Imm: SysOpen},
		{Op: vm.MOV, Ra: 7, Rb: 0}, // in fd
		{Op: vm.MOV, Ra: vm.RegArg0, Rb: 7},
		{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 0x5000},
		{Op: vm.MOVI, Ra: vm.RegArg2, Imm: 16},
		{Op: vm.SYS, Imm: SysRead}, // r0 = 2
		{Op: vm.MOV, Ra: 6, Rb: 0},
		{Op: vm.MOVI, Ra: vm.RegArg0, Imm: 0x4000},
		{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 1}, // create
		{Op: vm.SYS, Imm: SysOpen},
		{Op: vm.MOV, Ra: 5, Rb: 0}, // out fd
		{Op: vm.MOV, Ra: vm.RegArg0, Rb: 5},
		{Op: vm.MOVI, Ra: vm.RegArg1, Imm: 0x5000},
		{Op: vm.MOV, Ra: vm.RegArg2, Rb: 6},
		{Op: vm.SYS, Imm: SysWrite},
		{Op: vm.MOV, Ra: vm.RegArg0, Rb: 5},
		{Op: vm.SYS, Imm: SysClose},
		{Op: vm.MOV, Ra: vm.RegArg0, Rb: 7},
		{Op: vm.SYS, Imm: SysClose},
		{Op: vm.LD8, Ra: vm.RegArg0, Rb: 0, Imm: 0x5000},
		{Op: vm.SYS, Imm: SysExit},
	}
	var buf []byte
	for _, in := range code {
		buf = in.Encode(buf)
	}
	mustMap(0x8000, nil, image.PermR|image.PermW) // spare
	if err := p.MapPrivateBytes(0x1000, buf, PageAlign(uint64(len(buf))), image.PermR|image.PermX, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetupStack(nil); err != nil {
		t.Fatal(err)
	}
	p.CPU.PC = 0x1000
	ec, err := k.RunToExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if ec != 'A' {
		t.Fatalf("exit = %c", rune(ec))
	}
	out, _, err := k.FS.ReadFile("/out")
	if err != nil || string(out) != "AB" {
		t.Fatalf("out = %q %v", out, err)
	}
}

func TestUnmapAndPeek(t *testing.T) {
	ft := NewFrameTable()
	as := NewAddressSpace(ft)
	if _, _, err := as.MapPrivate(0x1000, []byte{7}, PageSize, image.PermR); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := as.Peek(0x1000, b[:]); err != nil || b[0] != 7 {
		t.Fatalf("peek: %v %v", b, err)
	}
	if !as.Mapped(0x1000) || as.ResidentPages() != 1 {
		t.Fatal("mapping accounting")
	}
	as.Unmap(0x1000, 1)
	if as.Mapped(0x1000) || ft.Stats().Frames != 0 {
		t.Fatal("unmap leaked")
	}
}

func TestMemStatsBytes(t *testing.T) {
	var s MemStats
	s.Frames = 3
	s.SharedSavings = 2
	if s.Bytes() != 3*PageSize || s.SavedBytes() != 2*PageSize {
		t.Fatal("stats math")
	}
}

func TestAllocMMapAdvances(t *testing.T) {
	k := NewKernel()
	p := k.Spawn()
	a := p.AllocMMap(10 * PageSize)
	b := p.AllocMMap(PageSize)
	if b <= a || b-a < 10*PageSize {
		t.Fatalf("mmap areas overlap: %#x %#x", a, b)
	}
}
