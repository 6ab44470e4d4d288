package ipc

// Tests for the multiplexed protocol: out-of-order completion, -race
// stress on one shared client, the hello gate's two refusals, drain
// with dozens of parked tags, tag corruption, duplicate and late
// delivery, reused request scratch, the SetOptions race fix, the
// allocation-free framed hot path, batch streaming, and the fault
// sites under pipelined load.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omos/internal/fault"
)

// startMuxServer is startServer with access to the Server value (for
// HandlerPool, Shutdown) and a custom backend.
func startMuxServer(t *testing.T, b Backend, tune func(*Server)) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b)
	if tune != nil {
		tune(srv)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(); l.Close() })
	return srv, l.Addr().String()
}

func dialMux(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := DialWith(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestHelloGateRefusesUngreetedFrame: a peer that opens with a request
// instead of a hello (what a protocol-1 client sent) gets exactly one
// refusal it can read, naming the version it needs, and then EOF.
// Nothing is dispatched and nothing panics.
func TestHelloGateRefusesUngreetedFrame(t *testing.T) {
	b := newFakeBackend()
	srv, addr := startMuxServer(t, b, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, &Request{Op: OpDefine, Path: "/bin/x", Text: "(merge /a)"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatalf("no refusal frame: %v", err)
	}
	if !strings.Contains(resp.Err, "protocol version "+protoVersionText) || resp.Flag {
		t.Fatalf("refusal = %+v, want an error naming protocol version %s", resp, protoVersionText)
	}
	if err := ReadFrame(conn, &resp); err != io.EOF {
		t.Fatalf("after the refusal: %v, want EOF", err)
	}
	if len(b.defined) != 0 {
		t.Fatalf("the ungreeted request was dispatched: %v", b.defined)
	}
	if n := srv.Recovered(); n != 0 {
		t.Fatalf("Recovered = %d, want 0", n)
	}
}

// TestHelloRefusedIsAnError: a server that answers the hello with
// anything but the acknowledgement is not fallen back from.  The call
// fails with an error naming the protocol, is not retried, and the
// request — here a non-idempotent one — never reaches the wire.
func TestHelloRefusedIsAnError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var conns atomic.Int32
	afterHello := make(chan int, 8) // bytes each connection sent after its hello; room for every retry
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				var req Request
				if err := ReadFrame(conn, &req); err != nil || req.Op != OpHello {
					afterHello <- -1
					return
				}
				WriteFrame(conn, &Response{Err: `unknown operation "hello"`})
				var hdr [4]byte
				n, _ := io.ReadFull(conn, hdr[:])
				afterHello <- n
			}()
		}
	}()
	c := dialMux(t, l.Addr().String(), Options{CallTimeout: 5 * time.Second, Retries: 3, Backoff: time.Millisecond})
	_, err = c.Call(&Request{Op: OpRun, Path: "/bin/x"})
	if err == nil || !strings.Contains(err.Error(), "protocol "+protoVersionText) {
		t.Fatalf("err = %v, want a refusal naming protocol %s", err, protoVersionText)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1 (a refusal is not retried)", n)
	}
	select {
	case n := <-afterHello:
		if n != 0 {
			t.Fatalf("after its hello was refused the client sent %d bytes, want a bare close", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client kept the refused connection open")
	}
}

// gatedBackend holds selected Run paths until released, so a test can
// prove a later request completes while an earlier one is parked.
type gatedBackend struct {
	*fakeBackend
	mu      sync.Mutex
	entered map[string]chan struct{} // closed when that path enters Run
	release map[string]chan struct{} // Run returns when closed
}

func newGatedBackend(paths ...string) *gatedBackend {
	g := &gatedBackend{
		fakeBackend: newFakeBackend(),
		entered:     map[string]chan struct{}{},
		release:     map[string]chan struct{}{},
	}
	for _, p := range paths {
		g.entered[p] = make(chan struct{})
		g.release[p] = make(chan struct{})
	}
	return g
}

func (g *gatedBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	g.mu.Lock()
	entered, gated := g.entered[name]
	release := g.release[name]
	g.mu.Unlock()
	if gated {
		close(entered)
		<-release
	}
	return RunOutcome{ExitCode: 7, Output: "ran " + name}, nil
}

func TestMuxOutOfOrderCompletion(t *testing.T) {
	g := newGatedBackend("/bin/slow")
	_, addr := startMuxServer(t, g, nil)
	c := dialMux(t, addr, Options{})

	slowDone := make(chan error, 1)
	go func() {
		resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/slow"})
		if err == nil && resp.Output != "ran /bin/slow" {
			err = fmt.Errorf("slow got %+v", resp)
		}
		slowDone <- err
	}()
	<-g.entered["/bin/slow"] // the slow call is parked inside the handler

	// A later call on the same connection completes first.
	resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/fast"})
	if err != nil || resp.Output != "ran /bin/fast" {
		t.Fatalf("fast call while slow parked: %v %+v", err, resp)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call completed before release: %v", err)
	default:
	}
	close(g.release["/bin/slow"])
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestMuxStressSharedClient(t *testing.T) {
	for _, goroutines := range []int{8, 64} {
		t.Run(fmt.Sprintf("g%d", goroutines), func(t *testing.T) {
			_, addr := startMuxServer(t, newFakeBackend(), nil)
			c := dialMux(t, addr, Options{CallTimeout: time.Minute})
			const iters = 25
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						path := fmt.Sprintf("/bin/g%d-i%d", g, i)
						resp, err := c.Call(&Request{Op: OpRun, Path: path})
						if err != nil {
							errs <- err
							return
						}
						// Each caller must receive its own completion,
						// not a neighbor's.
						if resp.Output != "ran "+path {
							errs <- fmt.Errorf("goroutine %d got %q", g, resp.Output)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// countingBackend parks every Run until released, counting entries.
type countingBackend struct {
	*fakeBackend
	entered atomic.Int64
	release chan struct{}
}

func (b *countingBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	b.entered.Add(1)
	<-b.release
	return RunOutcome{ExitCode: 1, Output: "drained"}, nil
}

func TestMuxDrainWaitsForAllTags(t *testing.T) {
	const parked = 50
	b := &countingBackend{fakeBackend: newFakeBackend(), release: make(chan struct{})}
	// A pool wider than the parked count so every call is genuinely
	// in a handler (in-flight), not queued in the read loop.
	srv, addr := startMuxServer(t, b, func(s *Server) {
		s.HandlerPool = parked + 14
		s.DrainGrace = 200 * time.Millisecond
	})
	c := dialMux(t, addr, Options{CallTimeout: time.Minute})

	results := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func(i int) {
			resp, err := c.Call(&Request{Op: OpRun, Path: fmt.Sprintf("/bin/p%d", i)})
			if err == nil && resp.Output != "drained" {
				err = fmt.Errorf("unexpected response %+v", resp)
			}
			results <- err
		}(i)
	}
	// Wait until all 50 tags are inside handlers on one connection.
	deadline := time.Now().Add(5 * time.Second)
	for b.entered.Load() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d calls entered handlers", b.entered.Load(), parked)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan struct{})
	go func() { srv.Shutdown(); close(shutdownDone) }()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with 50 tags still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// A late arrival during the drain is answered per-tag with a
	// clean draining error — the other 50 tags are unaffected.  It
	// rides the established (parked) connection: the listener is
	// already closed, so a fresh dial would be refused outright.
	if _, err := c.Call(&Request{Op: OpPing}); !errors.Is(err, ErrDraining) {
		t.Fatalf("late call got %v, want ErrDraining", err)
	}

	close(b.release)
	<-shutdownDone
	for i := 0; i < parked; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked call %d failed across drain: %v", i, err)
		}
	}
}

func TestMuxTagCorruption(t *testing.T) {
	// A corrupt-kind rule at ipc.write flips tag bits on the 3rd
	// response frame: the client must detect a completion it never
	// issued, poison the connection, and recover by redialing.
	fs := fault.New(1)
	if err := fs.Enable(fault.Rule{Site: fault.SiteIPCWrite, Kind: fault.KindCorrupt, EveryN: 3, Count: 1}); err != nil {
		t.Fatal(err)
	}
	_, addr := startMuxServer(t, newFakeBackend(), func(s *Server) { s.SetFaults(fs) })

	// No retries: observe the raw failure.
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	var frameErr *FrameError
	sawCorruption := false
	for i := 0; i < 4; i++ {
		_, err := c.Call(&Request{Op: OpList, Path: "/"})
		if err == nil {
			continue
		}
		if !errors.As(err, &frameErr) || frameErr.Reason != "tag-mismatch" {
			t.Fatalf("call %d: got %v, want tag-mismatch FrameError", i, err)
		}
		sawCorruption = true
	}
	if !sawCorruption {
		t.Fatal("corruption rule never surfaced")
	}
	if fs.Trips(fault.SiteIPCWrite) == 0 {
		t.Fatal("corrupt rule never tripped")
	}
	// The client recovers on a fresh session.
	c2 := dialMux(t, addr, Options{Retries: 2, CallTimeout: 5 * time.Second})
	if _, err := c2.Call(&Request{Op: OpPing}); err != nil {
		t.Fatalf("recovery after corruption: %v", err)
	}
}

// muxHarness hand-rolls a v2 server speaking raw tagged frames, for
// protocol-abuse tests the real server cannot be coaxed into.
func muxHarness(t *testing.T, serve func(conn net.Conn, enc *gob.Encoder, send func(tag uint64, resp *Response))) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Complete the hello in its self-contained framing.
		var req Request
		if err := ReadFrame(conn, &req); err != nil || req.Op != OpHello {
			return
		}
		if err := WriteFrame(conn, &Response{Text: protoVersionText, Flag: true}); err != nil {
			return
		}
		var sbuf sendBuf
		enc := gob.NewEncoder(&sbuf)
		send := func(tag uint64, resp *Response) {
			sbuf.reset()
			if err := enc.Encode(resp); err != nil {
				t.Errorf("harness encode: %v", err)
				return
			}
			sbuf.seal(tag)
			conn.Write(sbuf.b)
		}
		serve(conn, enc, send)
	}()
	return l.Addr().String()
}

// eachRequest decodes the tagged requests arriving on a harness
// connection and calls handle with each one's tag, until the stream
// ends or is damaged.
func eachRequest(conn net.Conn, handle func(tag uint64)) {
	feeder := &payloadFeeder{}
	dec := gob.NewDecoder(feeder)
	var hdr [hdrSize]byte
	var buf []byte
	for {
		tag, payload, err := readTagged(conn, &hdr, &buf)
		if err != nil {
			return
		}
		feeder.set(payload)
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		handle(tag)
	}
}

func TestMuxDuplicateTagDelivery(t *testing.T) {
	// The server completes tag 1 twice, then answers tag 2 normally:
	// the duplicate must be discarded and the connection survive.
	addr := muxHarness(t, func(conn net.Conn, enc *gob.Encoder, send func(uint64, *Response)) {
		eachRequest(conn, func(tag uint64) {
			send(tag, &Response{Text: "first", Final: true})
			if tag == 1 {
				send(tag, &Response{Text: "duplicate", Final: true})
			}
		})
	})
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text != "first" {
		t.Fatalf("tag 1: %v %+v", err, resp)
	}
	// The duplicate for tag 1 must not have poisoned the session or
	// been mistaken for tag 2's completion.
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text != "first" {
		t.Fatalf("tag 2 after duplicate: %v %+v", err, resp)
	}
}

func TestMuxNeverIssuedTagPoisonsSession(t *testing.T) {
	// A completion for a tag far beyond anything issued is stream
	// corruption: every parked call must fail with a tag-mismatch
	// FrameError.
	addr := muxHarness(t, func(conn net.Conn, enc *gob.Encoder, send func(uint64, *Response)) {
		var hdr [hdrSize]byte
		var buf []byte
		if _, _, err := readTagged(conn, &hdr, &buf); err != nil {
			return
		}
		send(0xDEAD_BEEF, &Response{Final: true})
	})
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	_, err := c.Call(&Request{Op: OpPing})
	var frameErr *FrameError
	if !errors.As(err, &frameErr) || frameErr.Reason != "tag-mismatch" {
		t.Fatalf("got %v, want tag-mismatch FrameError", err)
	}
}

func TestMuxLateCompletionNeverAnswersAnotherCall(t *testing.T) {
	// Tag 1 is abandoned by deadline; its completion arrives only after
	// tag 2 has been issued, ahead of tag 2's own.  Tag 2's caller must
	// get tag 2's answer — an abandoned tag's channel is never handed
	// to a later call.
	addr := muxHarness(t, func(conn net.Conn, enc *gob.Encoder, send func(uint64, *Response)) {
		eachRequest(conn, func(tag uint64) {
			switch tag {
			case 1: // never answered in time
			case 2:
				send(1, &Response{Text: "late", Final: true})
				send(2, &Response{Text: "second", Final: true})
			default:
				send(tag, &Response{Text: "later", Final: true})
			}
		})
	})
	c := dialMux(t, addr, Options{CallTimeout: 50 * time.Millisecond})
	if _, err := c.Call(&Request{Op: OpRun, Path: "/bin/slow"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("tag 1: got %v, want a deadline", err)
	}
	c.SetOptions(Options{CallTimeout: 5 * time.Second})
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text != "second" {
		t.Fatalf("tag 2 after a late completion for tag 1: %v %+v", err, resp)
	}
	// The harness accepts one connection only: a third answer proves
	// the late completion was discarded without costing the session.
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text != "later" {
		t.Fatalf("tag 3: %v %+v", err, resp)
	}
}

// TestMeshFetchShortBlobIsASizeError: a peer that announces ten blob
// bytes, streams five, sends the Final frame and hangs up is caught by
// the length check however the client's select orders the Final frame
// against the connection's death — the drain exit used to return the
// short blob unchecked.
func TestMeshFetchShortBlobIsASizeError(t *testing.T) {
	for i := 0; i < 50; i++ {
		addr := muxHarness(t, func(conn net.Conn, enc *gob.Encoder, send func(uint64, *Response)) {
			var hdr [hdrSize]byte
			var buf []byte
			tag, _, err := readTagged(conn, &hdr, &buf)
			if err != nil {
				return
			}
			send(tag, &Response{Blob: []byte("short")})
			send(tag, &Response{Final: true, Mesh: &MeshInfo{Found: true, Size: 10}})
		})
		c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
		_, blob, err := c.MeshFetch(context.Background(), &MeshReq{From: "x", CKey: "k"})
		if err == nil || !strings.Contains(err.Error(), "got 5 blob bytes, want 10") {
			t.Fatalf("iteration %d: short blob returned (%d bytes, err %v), want the size error", i, len(blob), err)
		}
	}
}

// recordingBackend keeps what the backend was handed by the operations
// that between them expose every Request field.
type recordingBackend struct {
	*fakeBackend
	mu   sync.Mutex
	seen []string
}

func (b *recordingBackend) record(format string, args ...interface{}) {
	b.mu.Lock()
	b.seen = append(b.seen, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *recordingBackend) DefineAllow(path, bp string, allow bool) error {
	b.record("define path=%q text=%q allow=%v", path, bp, allow)
	return nil
}
func (b *recordingBackend) DefineLibraryAllow(path, bp string, allow bool) error { return nil }
func (b *recordingBackend) RemoveAllow(path string, allow bool) error            { return nil }
func (b *recordingBackend) CompileTo(dir, unit, src string) ([]string, error) {
	b.record("compile dir=%q unit=%q text=%q", dir, unit, src)
	return nil, nil
}
func (b *recordingBackend) Run(name string, args []string, boot bool) (RunOutcome, error) {
	b.record("run path=%q args=%q", name, args)
	return RunOutcome{}, nil
}
func (b *recordingBackend) PutObjectBytes(path string, blob []byte) error {
	b.record("put path=%q blob=%q", path, blob)
	return nil
}
func (b *recordingBackend) MeshFetch(*MeshReq) (*MeshInfo, []byte, error) { return nil, nil, nil }
func (b *recordingBackend) MeshGossip(*MeshReq) (*MeshInfo, error)        { return nil, nil }
func (b *recordingBackend) MeshRebalance(*MeshReq) (*MeshInfo, error)     { return nil, nil }
func (b *recordingBackend) MeshPut(req *MeshReq) error {
	b.record("mesh-put key=%q", req.CKey)
	return nil
}

func TestMuxRequestStateDoesNotLeak(t *testing.T) {
	// The read loop decodes every request into one reused scratch
	// Request, and gob leaves fields absent from the stream untouched:
	// a request with every field set, followed by bare ones, must reach
	// the backend with zero values in everything the later ones omit.
	b := &recordingBackend{fakeBackend: newFakeBackend()}
	_, addr := startMuxServer(t, b, nil)
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	full := &Request{Op: OpDefine, Path: "/stale/path", Unit: "stale-unit", Text: "stale text",
		Args: []string{"stale", "args"}, Blob: []byte("stale blob"), AllowRebind: true,
		Mesh: &MeshReq{CKey: "stale-key"}}
	if _, err := c.Call(full); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpDefine, OpCompile, OpRun, OpPutObject} {
		if _, err := c.Call(&Request{Op: op}); err != nil {
			t.Fatalf("bare %s: %v", op, err)
		}
	}
	// A bare mesh-put has no payload: the guard in handle must see nil,
	// not the first request's MeshReq.
	if _, err := c.Call(&Request{Op: OpMeshPut}); err == nil || !strings.Contains(err.Error(), "without payload") {
		t.Fatalf("bare mesh-put: got %v, want the missing-payload refusal", err)
	}
	want := []string{
		`define path="/stale/path" text="stale text" allow=true`,
		`define path="" text="" allow=false`,
		`compile dir="" unit="" text=""`,
		`run path="" args=[]`,
		`put path="" blob=""`,
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !reflect.DeepEqual(b.seen, want) {
		t.Fatalf("backend saw\n  %s\nwant\n  %s", strings.Join(b.seen, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestSetOptionsConcurrentWithCalls(t *testing.T) {
	_, addr := startMuxServer(t, newFakeBackend(), nil)
	c := dialMux(t, addr, Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		opts := []Options{
			{CallTimeout: time.Minute},
			{CallTimeout: time.Minute, Retries: 2, Backoff: time.Millisecond},
			DefaultOptions,
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.SetOptions(opts[i%len(opts)])
			}
		}
	}()
	var callers sync.WaitGroup
	for g := 0; g < 8; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Call(&Request{Op: OpPing}); err != nil {
					t.Errorf("call under SetOptions churn: %v", err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	wg.Wait()
}

func TestFramedHotPathAllocFree(t *testing.T) {
	// Steady-state framing must not allocate: encode reuses the send
	// buffer behind the reserved header hole, decode reuses the
	// receive buffer and header scratch.
	payload := bytes.Repeat([]byte{0xAB}, 256)
	var sb sendBuf
	sink := bytes.NewBuffer(make([]byte, 0, 4096))
	rd := bytes.NewReader(nil)
	var hdr [hdrSize]byte
	rbuf := make([]byte, 0, 4096)
	// Warm the buffers to their high-water marks.
	sb.reset()
	sb.Write(payload)
	sb.seal(1)
	allocs := testing.AllocsPerRun(500, func() {
		sink.Reset()
		sb.reset()
		sb.Write(payload)
		sb.seal(42)
		sink.Write(sb.b)
		rd.Reset(sink.Bytes())
		tag, pl, err := readTagged(rd, &hdr, &rbuf)
		if err != nil || tag != 42 || len(pl) != len(payload) {
			t.Fatalf("roundtrip: tag=%d len=%d err=%v", tag, len(pl), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("framed hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// batchBackend counts InstantiateBatch items and fails marked paths.
type batchBackend struct {
	*fakeBackend
	mu    sync.Mutex
	items []string
}

func (b *batchBackend) InstantiateBatch(paths []string, done func(i int, err error)) {
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			b.mu.Lock()
			b.items = append(b.items, p)
			b.mu.Unlock()
			if strings.Contains(p, "bogus") {
				done(i, fmt.Errorf("no meta-object at %s", p))
				return
			}
			done(i, nil)
		}(i, p)
	}
	wg.Wait()
}

func TestBatchStreamingV2(t *testing.T) {
	b := &batchBackend{fakeBackend: newFakeBackend()}
	_, addr := startMuxServer(t, b, nil)
	c := dialMux(t, addr, Options{CallTimeout: 5 * time.Second})
	paths := []string{"/bin/a", "/bogus/x", "/bin/b", "/bin/c"}
	results, err := c.InstantiateBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(results), len(paths))
	}
	for i, r := range results {
		if r.Path != paths[i] {
			t.Fatalf("result %d for %q, want %q", i, r.Path, paths[i])
		}
		wantErr := strings.Contains(paths[i], "bogus")
		if (r.Err != nil) != wantErr {
			t.Fatalf("result %d (%s): err=%v", i, r.Path, r.Err)
		}
	}
	b.mu.Lock()
	n := len(b.items)
	b.mu.Unlock()
	if n != len(paths) {
		t.Fatalf("backend saw %d items, want %d", n, len(paths))
	}
}

func TestFaultPipelinedMatrix(t *testing.T) {
	// The ipc.read/ipc.write fault sites re-proven under pipelined
	// load: while 16 goroutines share one multiplexed client, an
	// injected mid-stream fault kills a connection under dozens of
	// in-flight tags.  Every idempotent call must converge via retry
	// and redial, and the server must survive (including the panic
	// kinds, which are recovered per connection).
	for _, site := range []string{fault.SiteIPCRead, fault.SiteIPCWrite} {
		for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
			t.Run(fmt.Sprintf("%s-%v", site, kind), func(t *testing.T) {
				fs := fault.New(7)
				if err := fs.Enable(fault.Rule{Site: site, Kind: kind, EveryN: 7, Count: 3}); err != nil {
					t.Fatal(err)
				}
				srv, addr := startMuxServer(t, newFakeBackend(), func(s *Server) { s.SetFaults(fs) })
				c := dialMux(t, addr, Options{
					CallTimeout: 10 * time.Second,
					Retries:     6,
					Backoff:     time.Millisecond,
				})
				var wg sync.WaitGroup
				for g := 0; g < 16; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 6; i++ {
							path := fmt.Sprintf("/d/g%d-i%d", g, i)
							resp, err := c.Call(&Request{Op: OpDisasm, Path: path})
							if err != nil {
								t.Errorf("g%d i%d: %v", g, i, err)
								return
							}
							if resp.Text != "disasm of "+path {
								t.Errorf("g%d i%d: cross-talk: %q", g, i, resp.Text)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				if fs.Trips(site) == 0 {
					t.Fatalf("%s never tripped under pipelined load", site)
				}
				if kind == fault.KindPanic && srv.Recovered() == 0 {
					t.Fatal("injected panics were not recovered")
				}
				// The server is still healthy for a fresh client.
				fs.DisableAll()
				c2 := dialMux(t, addr, Options{})
				if _, err := c2.Call(&Request{Op: OpPing}); err != nil {
					t.Fatalf("server unhealthy after %s faults: %v", site, err)
				}
			})
		}
	}
}
