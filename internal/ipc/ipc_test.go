package ipc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestFrameRoundtrip: any hello of this version crosses the gate's
// framing as itself.
func TestFrameRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := hello{
			Version: protoVersion,
			Ack:     r.Intn(2) == 1,
			Text:    strings.Repeat("x", r.Intn(200)),
			Proof:   make([]byte, r.Intn(64)),
		}
		r.Read(h.Proof)
		if len(h.Proof) == 0 {
			h.Proof = nil // an empty blob decodes as nil
		}
		var buf bytes.Buffer
		if err := writeHello(&buf, &h); err != nil {
			return false
		}
		var out hello
		if err := readHello(&buf, &out); err != nil {
			return false
		}
		return reflect.DeepEqual(h, out) && buf.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, &hello{Version: protoVersion, Ack: true, Text: "challenge", Proof: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := 0; i < len(full); i++ {
		if err := readHello(bytes.NewReader(full[:i]), new(hello)); err == nil {
			t.Fatalf("prefix %d accepted", i)
		}
	}
	// Oversized frame header rejected.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if err := readHello(bytes.NewReader(huge), new(hello)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// fakeBackend records calls and returns canned data.  It serves every
// operation, so any request the fuzzer forms reaches a method; a test
// backend embeds it and overrides the operations it observes.
type fakeBackend struct {
	defined map[string]string
	objects map[string][]byte
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{defined: map[string]string{}, objects: map[string][]byte{}}
}

func (f *fakeBackend) DefineAllow(p, bp string, allow bool) error { f.defined[p] = bp; return nil }
func (f *fakeBackend) DefineLibraryAllow(p, bp string, allow bool) error {
	f.defined[p] = "lib:" + bp
	return nil
}
func (f *fakeBackend) RemoveAllow(p string, allow bool) error {
	delete(f.defined, p)
	delete(f.objects, p)
	return nil
}
func (f *fakeBackend) PutObjectBytes(p string, b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("empty object")
	}
	f.objects[p] = b
	return nil
}
func (f *fakeBackend) AssembleTo(p, src string) error { f.objects[p] = []byte(src); return nil }
func (f *fakeBackend) CompileTo(dir, unit, src string) ([]string, error) {
	return []string{dir + "/" + unit + ".0.o"}, nil
}
func (f *fakeBackend) List(prefix string) []string {
	var out []string
	for p := range f.defined {
		out = append(out, p)
	}
	for p := range f.objects {
		out = append(out, p)
	}
	return out
}
func (f *fakeBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	if name == "/bin/missing" {
		return RunOutcome{}, fmt.Errorf("no such meta-object")
	}
	out := RunOutcome{ExitCode: 7, Output: "ran " + name, User: 100, Sys: 200}
	if boot {
		out.Sys += 50
	}
	return out, nil
}
func (f *fakeBackend) Disasm(p string) (string, error) { return "disasm of " + p, nil }
func (f *fakeBackend) Stats() string                   { return "stats\n" }
func (f *fakeBackend) ExportMeta(p string) (string, bool, error) {
	if bp, ok := f.defined[p]; ok {
		return bp, false, nil
	}
	return "", false, fmt.Errorf("no meta at %s", p)
}
func (f *fakeBackend) ExportObject(p string) ([]byte, error) {
	if b, ok := f.objects[p]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("no object at %s", p)
}
func (f *fakeBackend) Health() HealthInfo                   { return HealthInfo{UptimeMS: 1} }
func (f *fakeBackend) Graph() string                        { return "graph" }
func (f *fakeBackend) Explain(sym string) (string, error)   { return "explain " + sym, nil }
func (f *fakeBackend) UpgradeStart(pct int) (string, error) { return "", errors.New("no upgrades") }
func (f *fakeBackend) UpgradeStage(p, bp string, isLib bool) error {
	return errors.New("no upgrades")
}
func (f *fakeBackend) UpgradeCommit() error                          { return errors.New("no upgrades") }
func (f *fakeBackend) UpgradeRollback(reason string) error           { return errors.New("no upgrades") }
func (f *fakeBackend) UpgradeStatus() (string, bool)                 { return "upgrade: idle", false }
func (f *fakeBackend) MeshFetch(*MeshReq) (*MeshInfo, []byte, error) { return &MeshInfo{}, nil, nil }
func (f *fakeBackend) MeshPut(*MeshReq) error                        { return nil }
func (f *fakeBackend) MeshGossip(*MeshReq) (*MeshInfo, error)        { return &MeshInfo{}, nil }
func (f *fakeBackend) MeshRebalance(*MeshReq) (*MeshInfo, error)     { return &MeshInfo{}, nil }
func (f *fakeBackend) InstantiateBatch(paths []string, done func(i int, err error)) {
	for i := range paths {
		done(i, nil)
	}
}

func startServer(t *testing.T) (*Client, *fakeBackend) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := newFakeBackend()
	go Serve(l, b)
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, b
}

func TestClientServerRoundtrip(t *testing.T) {
	c, b := startServer(t)

	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("ping: %v %+v", err, resp)
	}
	if _, err := c.Call(&Request{Op: OpDefine, Path: "/bin/x", Text: "(merge /a)"}); err != nil {
		t.Fatal(err)
	}
	if b.defined["/bin/x"] != "(merge /a)" {
		t.Fatalf("define not delivered: %v", b.defined)
	}
	if _, err := c.Call(&Request{Op: OpPutObject, Path: "/o", Blob: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(&Request{Op: OpList, Path: "/"})
	if err != nil || len(resp.Paths) != 2 {
		t.Fatalf("list: %v %v", err, resp.Paths)
	}
	resp, err = c.Call(&Request{Op: OpRun, Path: "/bin/x", Args: []string{"-l"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExitCode != 7 || resp.Output != "ran /bin/x" || resp.Sys != 200 {
		t.Fatalf("run resp = %+v", resp)
	}
	resp, err = c.Call(&Request{Op: OpRunBoot, Path: "/bin/x"})
	if err != nil || resp.Sys != 250 {
		t.Fatalf("run-boot resp = %+v err=%v", resp, err)
	}
	// Errors propagate as responses.
	if _, err := c.Call(&Request{Op: OpRun, Path: "/bin/missing"}); err == nil {
		t.Fatal("missing program did not error")
	}
	if _, err := c.Call(&Request{Op: OpPutObject, Path: "/o2"}); err == nil {
		t.Fatal("empty object accepted")
	}
	if _, err := c.Call(&Request{Op: Op("bogus")}); err == nil {
		t.Fatal("bogus op accepted")
	}
	// Connection survives errors: ping again.
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestFederationOps(t *testing.T) {
	c, b := startServer(t)
	if _, err := c.Call(&Request{Op: OpDefine, Path: "/lib/m", Text: "(merge /x)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(&Request{Op: OpPutObject, Path: "/o", Blob: []byte{9, 9}}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(&Request{Op: OpGetMeta, Path: "/lib/m"})
	if err != nil || resp.Text != "(merge /x)" {
		t.Fatalf("get-meta: %v %+v", err, resp)
	}
	resp, err = c.Call(&Request{Op: OpGetObject, Path: "/o"})
	if err != nil || len(resp.Blob) != 2 {
		t.Fatalf("get-object: %v %+v", err, resp)
	}
	if _, err := c.Call(&Request{Op: OpGetMeta, Path: "/nope"}); err == nil {
		t.Fatal("phantom meta fetched")
	}
	if _, err := c.Call(&Request{Op: OpGetObject, Path: "/nope"}); err == nil {
		t.Fatal("phantom object fetched")
	}
	// Remaining ops for coverage.
	if resp, err := c.Call(&Request{Op: OpAssemble, Path: "/a", Text: ".text"}); err != nil || resp.Err != "" {
		t.Fatalf("assemble: %v", err)
	}
	if resp, err := c.Call(&Request{Op: OpCompile, Path: "/d", Unit: "u", Text: "int x;"}); err != nil || len(resp.Paths) != 1 {
		t.Fatalf("compile: %v %v", err, resp)
	}
	if resp, err := c.Call(&Request{Op: OpDisasm, Path: "/o"}); err != nil || resp.Text == "" {
		t.Fatalf("disasm: %v", err)
	}
	if resp, err := c.Call(&Request{Op: OpStats}); err != nil || resp.Text != "stats\ntransport: recovered=0\n" {
		t.Fatalf("stats: %v %+v", err, resp)
	}
	_ = b
}

// slowBackend blocks Run until released, to hold a request in flight
// across a Shutdown call.
type slowBackend struct {
	*fakeBackend
	entered chan struct{}
	release chan struct{}
}

func (s *slowBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	close(s.entered)
	<-s.release
	return RunOutcome{ExitCode: 3, Output: "slow"}, nil
}

func TestGracefulShutdownDrainsInflight(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &slowBackend{
		fakeBackend: newFakeBackend(),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	srv := NewServer(b)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type callResult struct {
		resp *Response
		err  error
	}
	inflight := make(chan callResult, 1)
	go func() {
		resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/slow"})
		inflight <- callResult{resp, err}
	}()
	<-b.entered // the request is now inside the backend

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()

	// Shutdown must not complete while the request is in flight.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a request in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(b.release)
	<-shutdownDone
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight call lost during shutdown: %v", res.err)
	}
	if res.resp.ExitCode != 3 || res.resp.Output != "slow" {
		t.Fatalf("in-flight response corrupted: %+v", res.resp)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Shutdown, want nil", err)
	}
	// New connections are refused after shutdown.
	if c2, err := Dial(l.Addr().String()); err == nil {
		if _, err := c2.Call(&Request{Op: OpPing}); err == nil {
			t.Fatal("server accepted a request after shutdown")
		}
		c2.Close()
	}
	// Shutdown is idempotent.
	srv.Shutdown()
}
