package ipc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"omos/internal/fault"
)

// TestFaultFrameErrorTyped: every flavor of frame damage surfaces as
// *FrameError with the right reason; a clean close stays io.EOF.
func TestFaultFrameErrorTyped(t *testing.T) {
	var fe *FrameError

	// Oversized length prefix.
	var out Request
	err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), &out)
	if !errors.As(err, &fe) || fe.Reason != "oversized" {
		t.Fatalf("oversized: err = %v", err)
	}

	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	err = ReadFrame(bytes.NewReader(full[:len(full)-2]), &out)
	if !errors.As(err, &fe) || fe.Reason != "truncated" {
		t.Fatalf("truncated payload: err = %v", err)
	}

	// Truncated header.
	err = ReadFrame(bytes.NewReader(full[:2]), &out)
	if !errors.As(err, &fe) || fe.Reason != "truncated" {
		t.Fatalf("truncated header: err = %v", err)
	}

	// Malformed payload (length prefix fine, garbage gob).
	garbage := make([]byte, 4+8)
	binary.BigEndian.PutUint32(garbage, 8)
	copy(garbage[4:], "notagob!")
	err = ReadFrame(bytes.NewReader(garbage), &out)
	if !errors.As(err, &fe) || fe.Reason != "malformed" {
		t.Fatalf("malformed: err = %v", err)
	}
}

// TestFaultBadFrame: a client that sends garbage costs only its own
// connection; the daemon answers the next client normally.
func TestFaultBadFrame(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	// Garbage client: oversized header followed by noise.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF})
	// The server must hang up on us.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept talking to a garbage client")
	}
	raw.Close()

	// Second garbage flavor: plausible length, unparseable payload.
	raw2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 16)
	raw2.Write(hdr[:])
	raw2.Write(bytes.Repeat([]byte{0x5A}, 16))
	raw2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw2.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept talking to a malformed-gob client")
	}
	raw2.Close()

	// The accept loop survived: a well-formed client gets served.
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("daemon dead after bad frames: %v", err)
	}
}

// TestFaultCallDeadline: a server that accepts the request but never
// replies must not hang the client; the configured call timeout
// surfaces as context.DeadlineExceeded.
func TestFaultCallDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Swallow the request, never answer.
			go func(c net.Conn) {
				var req Request
				ReadFrame(c, &req)
				// Hold the connection open, silent: an unreferenced
				// conn is closed by its finalizer at the next GC, which
				// the client would see as EOF before its deadline.
				<-done
				c.Close()
			}(conn)
		}
	}()

	c, err := DialWith(l.Addr().String(), Options{CallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(&Request{Op: OpPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}

	// Same via a caller-supplied context deadline.
	c2, err := DialWith(l.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c2.CallCtx(ctx, &Request{Op: OpPing}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx err = %v, want context.DeadlineExceeded", err)
	}
}

// TestFaultInjectedReadDrop: an injected receive failure drops the
// connection mid-protocol; an idempotent call rides it out via the
// transparent reconnect.
func TestFaultInjectedReadDrop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	f := fault.New(7)
	f.Enable(fault.Rule{Site: fault.SiteIPCRead, Kind: fault.KindError, EveryN: 2, Count: 1})
	srv.SetFaults(f)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := DialWith(l.Addr().String(), Options{Retries: 2, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First call succeeds (hit 1), second is dropped server-side (hit
	// 2 trips) and must transparently reconnect and succeed.
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("ping across injected read drop: %v", err)
	}
	if f.Trips(fault.SiteIPCRead) == 0 {
		t.Fatal("fault never tripped; test proved nothing")
	}
}

// TestFaultInjectedWriteDrop: the response is computed but the send
// fails; the connection drops and an idempotent retry succeeds.
func TestFaultInjectedWriteDrop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	f := fault.New(7)
	f.Enable(fault.Rule{Site: fault.SiteIPCWrite, Kind: fault.KindError, EveryN: 1, Count: 1})
	srv.SetFaults(f)
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := DialWith(l.Addr().String(), Options{Retries: 2, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(&Request{Op: OpList, Path: "/"}); err != nil || resp == nil {
		t.Fatalf("list across injected write drop: %v", err)
	}
	if f.Trips(fault.SiteIPCWrite) != 1 {
		t.Fatalf("write fault trips = %d, want 1", f.Trips(fault.SiteIPCWrite))
	}
}

// panicBackend panics on Run: the handler must convert it into an
// error response, not a dead daemon.
type panicBackend struct{ *fakeBackend }

func (p *panicBackend) Run(string, []string, bool) (RunOutcome, error) {
	panic("handler bug")
}

// TestFaultHandlerPanicRecovered: a panicking backend handler fails
// that one request with an error response; the connection and the
// daemon survive, and Recovered counts it.
func TestFaultHandlerPanicRecovered(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&panicBackend{newFakeBackend()})
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Request{Op: OpRun, Path: "/bin/x"})
	if err == nil {
		t.Fatal("panicking handler returned success")
	}
	if resp == nil || resp.Err == "" {
		t.Fatalf("want error response, got %+v", resp)
	}
	if srv.Recovered() != 1 {
		t.Fatalf("Recovered = %d, want 1", srv.Recovered())
	}
	// Same connection still works.
	if resp, err := c.Call(&Request{Op: OpPing}); err != nil || resp.Text == "" {
		t.Fatalf("connection dead after recovered panic: %v", err)
	}
	// Health reflects the recovery even on a backend without Health.
	hresp, err := c.Call(&Request{Op: OpHealth})
	if err != nil || hresp.Health == nil {
		t.Fatalf("health: %v %+v", err, hresp)
	}
	if hresp.Health.Recovered != 1 || hresp.Health.Draining {
		t.Fatalf("health = %+v", hresp.Health)
	}
}

// TestFaultDrainRace: a client whose request races the daemon's
// SIGTERM drain gets a clean typed "draining" error, never a
// connection reset mid-exchange.
func TestFaultDrainRace(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	srv.DrainGrace = 500 * time.Millisecond
	go srv.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	// The drain has begun; our next request lands inside the grace
	// window and must be answered, not reset.
	_, err = c.Call(&Request{Op: OpPing})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	<-shutdownDone
}

// TestFaultHealthDuringDrain: the health op reports Draining once
// shutdown begins.
func TestFaultHealthDuringDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Request{Op: OpHealth})
	if err != nil || resp.Health == nil {
		t.Fatalf("health: %v", err)
	}
	if resp.Health.Draining {
		t.Fatal("daemon claims to be draining while serving")
	}
}
