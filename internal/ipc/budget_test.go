package ipc

// The wire path's syscall and goroutine budget, counted at the
// net.Conn boundary: what one v2 round trip may cost each side, that
// frames arriving together share a read, that a connection's workers
// are reused rather than respawned, that Shutdown leaves none behind,
// and that a full handler pool still pauses the reader.

import (
	"bytes"
	"encoding/gob"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Read calls that delivered bytes and the Write
// calls made on a connection.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn
// and hands it out on conns.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.conns <- cc
	return cc, nil
}

// startCountingServer serves b behind a countingListener.
func startCountingServer(t *testing.T, b Backend, tune func(*Server)) (*Server, *countingListener) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One send per accepted connection; no test here accepts more.
	cl := &countingListener{Listener: l, conns: make(chan *countingConn, 4)}
	srv := NewServer(b)
	if tune != nil {
		tune(srv)
	}
	go srv.Serve(cl)
	t.Cleanup(func() { srv.Shutdown(); l.Close() })
	return srv, cl
}

// stackBuf is muxWorkers' scratch, kept so polling makes no garbage.
var stackBuf = make([]byte, 1<<20)

// muxWorkers counts this process's live per-connection handler workers
// by their entry frame, which no other goroutine has on its stack.
func muxWorkers() int {
	for {
		n := runtime.Stack(stackBuf, true)
		if n < len(stackBuf) {
			return bytes.Count(stackBuf[:n], []byte("ipc.(*Server).muxWorker("))
		}
		stackBuf = make([]byte, 2*len(stackBuf))
	}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitNoMuxWorkers polls rather than asserts: a worker that has
// signalled its exit is still on its way out for an instant.
func waitNoMuxWorkers(t *testing.T) {
	t.Helper()
	waitUntil(t, "no handler worker is alive", func() bool { return muxWorkers() == 0 })
}

func TestWireBudgetOneWriteOneReadPerRoundTrip(t *testing.T) {
	waitNoMuxWorkers(t) // earlier tests' servers are gone
	srv, cl := startCountingServer(t, newFakeBackend(), nil)
	raw, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c := NewClient(cc)
	defer c.Close()
	// The first call carries the hello and both gob type preambles;
	// everything after it is steady state.
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	sc := <-cl.conns
	if got := muxWorkers(); got != 1 {
		t.Fatalf("%d handler workers after the first call, want 1", got)
	}

	const calls = 1000
	cr, cw := cc.reads.Load(), cc.writes.Load()
	sr, sw := sc.reads.Load(), sc.writes.Load()
	for i := 0; i < calls; i++ {
		if _, err := c.Call(&Request{Op: OpList, Path: "/"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, side := range []struct {
		name          string
		reads, writes int64
	}{
		{"client", cc.reads.Load() - cr, cc.writes.Load() - cw},
		{"server", sc.reads.Load() - sr, sc.writes.Load() - sw},
	} {
		if side.writes != calls {
			t.Errorf("%s: %d writes for %d round trips, want one each", side.name, side.writes, calls)
		}
		if side.reads > calls {
			t.Errorf("%s: %d reads for %d round trips, want at most one each", side.name, side.reads, calls)
		}
	}
	// Sequential calls reuse the connection's one worker: none of the
	// thousand started a goroutine.
	if got := muxWorkers(); got != 1 {
		t.Errorf("%d handler workers after %d sequential calls, want 1", got, calls)
	}

	// Shutdown returns only once every worker has exited.
	srv.Shutdown()
	waitNoMuxWorkers(t)
}

func TestWireBudgetBackToBackFramesShareOneRead(t *testing.T) {
	_, cl := startCountingServer(t, newFakeBackend(), nil)
	conn, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, &Request{Op: OpHello, Text: protoVersionText}); err != nil {
		t.Fatal(err)
	}
	var ack Response
	if err := ReadFrame(conn, &ack); err != nil || !ack.Flag {
		t.Fatalf("hello: %v %+v", err, ack)
	}
	sc := <-cl.conns
	before := sc.reads.Load()

	// Two request frames in one segment.
	both := v2Stream(t, &Request{Op: OpDisasm, Path: "/o/1"}, &Request{Op: OpDisasm, Path: "/o/2"})
	if _, err := conn.Write(both); err != nil {
		t.Fatal(err)
	}

	feeder := &payloadFeeder{}
	dec := gob.NewDecoder(feeder)
	var hdr [hdrSize]byte
	var buf []byte
	answered := map[uint64]string{}
	for len(answered) < 2 {
		tag, payload, err := readTagged(conn, &hdr, &buf)
		if err != nil {
			t.Fatal(err)
		}
		feeder.set(payload)
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		answered[tag] = resp.Text
	}
	if answered[1] != "disasm of /o/1" || answered[2] != "disasm of /o/2" {
		t.Fatalf("answers: %v", answered)
	}
	if got := sc.reads.Load() - before; got != 1 {
		t.Fatalf("server took %d reads for two frames sent in one write, want 1", got)
	}
}

func TestMuxFullPoolPausesReader(t *testing.T) {
	// Both slots of a two-handler pool are parked in the backend.  The
	// reader takes a third request off the wire and blocks on a slot
	// for it; from then on it reads nothing more, so a large fourth
	// request stays in the transport — that is the backpressure.
	b := &countingBackend{fakeBackend: newFakeBackend(), release: make(chan struct{})}
	_, cl := startCountingServer(t, b, func(s *Server) { s.HandlerPool = 2 })
	c := dialMux(t, cl.Addr().String(), Options{CallTimeout: time.Minute})

	var calls sync.WaitGroup
	call := func(req *Request) {
		defer calls.Done()
		if _, err := c.Call(req); err != nil {
			t.Errorf("%s %s: %v", req.Op, req.Path, err)
		}
	}
	calls.Add(2)
	go call(&Request{Op: OpRun, Path: "/bin/p0"})
	go call(&Request{Op: OpRun, Path: "/bin/p1"})
	waitUntil(t, "both slots are in the backend", func() bool { return b.entered.Load() == 2 })
	sc := <-cl.conns
	idleReads := sc.reads.Load()
	calls.Add(1)
	go call(&Request{Op: OpRun, Path: "/bin/p2"})
	waitUntil(t, "the reader took the third request", func() bool { return sc.reads.Load() > idleReads })
	blockedReads := sc.reads.Load()
	calls.Add(1)
	go call(&Request{Op: OpPing, Text: strings.Repeat("x", 16*readBufSize)})

	time.Sleep(100 * time.Millisecond)
	if got := sc.reads.Load(); got != blockedReads {
		t.Errorf("reader made %d reads with the pool full, want none", got-blockedReads)
	}
	if got := b.entered.Load(); got != 2 {
		t.Errorf("%d handlers entered a pool of 2", got)
	}
	close(b.release)
	calls.Wait()
	if got := b.entered.Load(); got != 3 {
		t.Errorf("%d runs reached the backend, want 3", got)
	}
}
