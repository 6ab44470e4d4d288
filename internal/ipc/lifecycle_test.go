package ipc

// The client request lifecycle as one table: every kind of request
// (plain idempotent call, plain non-idempotent call, batch, mesh fetch)
// against every class of failure, each cell pinning the exact number of
// attempts, the identity of the error, and the breaker's state
// afterwards.  The peer is scripted and in-process, and it is the one
// that counts attempts.

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lifecyclePeer accepts any number of connections and runs script on
// each.  attempts counts what the client tried: one per hello a script
// failed or refused, one per request frame a script read.
type lifecyclePeer struct {
	l        net.Listener
	script   func(*peerConn)
	attempts atomic.Int32
	// requests gets a token per request read (the cancel column waits
	// for it); buffered beyond any cell's attempt count.
	requests chan struct{}

	mu    sync.Mutex
	conns []net.Conn
}

// peerConn is one accepted connection, with the peer's half of the
// tagged-frame codec.
type peerConn struct {
	p    *lifecyclePeer
	conn net.Conn
	n    int // which connection of this peer, from 1

	feeder payloadFeeder
	dec    *gob.Decoder
	hdr    [hdrSize]byte
	buf    []byte
	sbuf   sendBuf
	enc    *gob.Encoder
}

func startLifecyclePeer(t *testing.T, script func(*peerConn)) *lifecyclePeer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &lifecyclePeer{l: l, script: script, requests: make(chan struct{}, 16)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, conn)
			p.mu.Unlock()
			pc := &peerConn{p: p, conn: conn, n: n}
			pc.dec = gob.NewDecoder(&pc.feeder)
			pc.enc = gob.NewEncoder(&pc.sbuf)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				p.script(pc)
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		wg.Wait()
	})
	return p
}

// readHello consumes the client's hello frame.
func (pc *peerConn) readHello() bool {
	var req Request
	return ReadFrame(pc.conn, &req) == nil && req.Op == OpHello
}

// greet completes the hello exchange.
func (pc *peerConn) greet() bool {
	return pc.readHello() && WriteFrame(pc.conn, &Response{Text: protoVersionText, Flag: true}) == nil
}

// request reads the next tagged request and counts it as an attempt.
func (pc *peerConn) request() (uint64, *Request, bool) {
	tag, payload, err := readTagged(pc.conn, &pc.hdr, &pc.buf)
	if err != nil {
		return 0, nil, false
	}
	pc.feeder.set(payload)
	req := new(Request)
	if err := pc.dec.Decode(req); err != nil {
		return 0, nil, false
	}
	pc.p.attempts.Add(1)
	pc.p.requests <- struct{}{}
	return tag, req, true
}

func (pc *peerConn) send(tag uint64, resp *Response) {
	pc.sbuf.reset()
	if err := pc.enc.Encode(resp); err != nil {
		panic(err)
	}
	pc.sbuf.seal(tag)
	pc.conn.Write(pc.sbuf.b)
}

// failHello reads the hello and hangs up: a transport failure before
// the request was ever transmitted.
func failHello(pc *peerConn) {
	if pc.readHello() {
		pc.p.attempts.Add(1)
	}
}

// answering greets, then hands every request to reply.
func answering(reply func(pc *peerConn, tag uint64, req *Request)) func(*peerConn) {
	return func(pc *peerConn) {
		if !pc.greet() {
			return
		}
		for {
			tag, req, ok := pc.request()
			if !ok {
				return
			}
			reply(pc, tag, req)
		}
	}
}

// closing answers every request with the one frame that closes it,
// carrying a request-level error.
func closing(final Response) func(*peerConn) {
	final.Final = true
	return answering(func(pc *peerConn, tag uint64, _ *Request) {
		f := final
		pc.send(tag, &f)
	})
}

// replyOK answers a request successfully, in the shape its op expects.
func replyOK(pc *peerConn, tag uint64, req *Request) {
	switch req.Op {
	case OpInstantiateBatch:
		for i := range req.Args {
			pc.send(tag, &Response{Index: i})
		}
	case OpMeshFetch:
		pc.send(tag, &Response{Blob: []byte("blob")})
		pc.send(tag, &Response{Final: true, Mesh: &MeshInfo{Found: true, Size: 4}})
		return
	}
	pc.send(tag, &Response{Final: true})
}

// dropRequest greets, reads one request and hangs up on it.
func dropRequest(pc *peerConn) {
	if pc.greet() {
		pc.request()
	}
}

// countingSource counts the jitter draws of a Client: one per back-off
// taken, which is how the dial-failure column counts attempts no peer
// can see.
type countingSource struct{ draws atomic.Int32 }

func (s *countingSource) Int63() int64 { s.draws.Add(1); return 0 }
func (s *countingSource) Seed(int64)   {}

func TestRequestLifecycle(t *testing.T) {
	rows := []struct {
		name string
		do   func(ctx context.Context, c *Client) error
	}{
		{"call-idempotent", func(ctx context.Context, c *Client) error {
			_, err := c.CallCtx(ctx, &Request{Op: OpPing})
			return err
		}},
		{"call-non-idempotent", func(ctx context.Context, c *Client) error {
			_, err := c.CallCtx(ctx, &Request{Op: OpRun, Path: "/bin/x"})
			return err
		}},
		{"batch", func(ctx context.Context, c *Client) error {
			res, err := c.InstantiateBatchCtx(ctx, []string{"/bin/a", "/bin/b"})
			if err == nil && (len(res) != 2 || res[0].Err != nil || res[1].Err != nil) {
				t.Errorf("batch succeeded with results %+v, want two clean items", res)
			}
			return err
		}},
		{"mesh-fetch", func(ctx context.Context, c *Client) error {
			info, blob, err := c.MeshFetch(ctx, &MeshReq{From: "t", CKey: "k"})
			if err == nil && (info == nil || !info.Found || string(blob) != "blob") {
				t.Errorf("fetch succeeded with %+v %q, want the found blob", info, blob)
			}
			return err
		}},
	}

	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	overloaded := func(err error) bool {
		var oe *OverloadedError
		return errors.Is(err, ErrOverloaded) && errors.As(err, &oe) && oe.RetryAfter > 0
	}
	all := func(n int) [4]int { return [4]int{n, n, n, n} }

	cols := []struct {
		name   string
		script func(*peerConn) // nil: nobody listens
		// attempts per row, in rows' order.
		attempts    [4]int
		want        func(error) bool // nil: the call succeeds
		breakerOpen bool
		timeout     time.Duration // CallTimeout; default 5s
		cancel      bool          // cancel once the peer has the request
		preTrip     bool          // the breaker is already open
		repeat      int           // run the cell this often; default once
	}{
		{name: "ok", script: answering(replyOK), attempts: all(1)},
		{name: "breaker-open", script: answering(replyOK), preTrip: true,
			attempts: all(0), want: overloaded, breakerOpen: true},
		// Pre-send failures: every op retries, Retries times.
		{name: "dial-failure", attempts: all(3), want: func(err error) bool {
			var oe *net.OpError
			return errors.As(err, &oe) && oe.Op == "dial"
		}},
		{name: "hello-transport-failure", script: failHello, attempts: all(3), want: is(io.EOF)},
		{name: "hello-refused", script: func(pc *peerConn) {
			if pc.readHello() {
				pc.p.attempts.Add(1)
				WriteFrame(pc.conn, &Response{Err: `unknown operation "hello"`})
			}
		}, attempts: all(1), want: is(errHelloRefused)},
		// Mid-exchange: only idempotent ops retry.
		{name: "dropped-mid-exchange", script: dropRequest,
			attempts: [4]int{3, 1, 3, 3}, want: is(io.EOF)},
		// The two budgets are separate: two hello failures use up the
		// pre-send budget and leave the transport budget whole.
		{name: "hello-failures-then-drops", script: func(pc *peerConn) {
			if pc.n <= 2 {
				failHello(pc)
			} else {
				dropRequest(pc)
			}
		}, attempts: [4]int{5, 3, 5, 5}, want: is(io.EOF)},
		// A shed is retried through the hold by everyone but a fetch,
		// whose caller builds locally instead; the breaker trips
		// either way.
		{name: "overload-shed", script: closing(Response{Err: overloadedMsg, RetryAfterMS: 1}),
			attempts: [4]int{3, 3, 3, 1}, want: overloaded, breakerOpen: true},
		{name: "draining", script: closing(Response{Err: drainingMsg}),
			attempts: all(1), want: is(ErrDraining)},
		{name: "application-error", script: closing(Response{Err: "backend does not support this"}),
			attempts: all(1), want: func(err error) bool {
				return err != nil && err.Error() == "omosd: backend does not support this"
			}},
		{name: "rebind-refused", script: closing(Response{Err: rebindMsg, Rebind: &RebindInfo{Program: "/bin/p"}}),
			attempts: all(1), want: func(err error) bool {
				var re *RebindError
				return errors.Is(err, ErrRebindBlocked) && errors.As(err, &re) && re.Program == "/bin/p"
			}},
		{name: "pin-violation", script: closing(Response{Err: pinViolationMsg, Pin: &PinInfo{Image: "/bin/p"}}),
			attempts: all(1), want: func(err error) bool {
				var pe *PinViolationError
				return errors.Is(err, ErrPinViolation) && errors.As(err, &pe) && pe.Image == "/bin/p"
			}},
		{name: "upgrade-aborted", script: closing(Response{Err: upgradeAbortedMsg, Upgrade: &UpgradeAbortedInfo{Epoch: "e1"}}),
			attempts: all(1), want: func(err error) bool {
				var ue *UpgradeAbortedError
				return errors.Is(err, ErrUpgradeAborted) && errors.As(err, &ue) && ue.Epoch == "e1"
			}},
		// The peer takes the request and never answers.
		{name: "deadline", script: answering(func(*peerConn, uint64, *Request) {}),
			timeout: 50 * time.Millisecond, attempts: all(1), want: is(context.DeadlineExceeded)},
		{name: "cancel", script: answering(func(*peerConn, uint64, *Request) {}),
			cancel: true, attempts: all(1), want: is(context.Canceled)},
		// The peer answers in full and hangs up at once: whichever of
		// the closing frame and the session's death the client notices
		// first, the buffered answer wins.
		{name: "failure-races-final", script: func(pc *peerConn) {
			if !pc.greet() {
				return
			}
			if tag, req, ok := pc.request(); ok {
				replyOK(pc, tag, req)
			}
		}, attempts: all(1), repeat: 20},
	}

	for _, col := range cols {
		for r, row := range rows {
			t.Run(col.name+"/"+row.name, func(t *testing.T) {
				for i := 0; i < max(col.repeat, 1); i++ {
					opts := Options{ConnectTimeout: 5 * time.Second, CallTimeout: 5 * time.Second,
						Retries: 2, Backoff: time.Millisecond}
					if col.timeout > 0 {
						opts.CallTimeout = col.timeout
					}
					var c *Client
					var peer *lifecyclePeer
					backoffs := &countingSource{}
					if col.script == nil {
						// An address nobody listens on, and no session yet.
						l, err := net.Listen("tcp", "127.0.0.1:0")
						if err != nil {
							t.Fatal(err)
						}
						l.Close()
						c = &Client{addr: l.Addr().String(), rng: rand.New(backoffs)}
						c.SetOptions(opts)
					} else {
						peer = startLifecyclePeer(t, col.script)
						c = dialMux(t, peer.l.Addr().String(), opts)
					}
					if col.preTrip {
						c.tripBreaker(time.Second)
					}
					ctx, cancel := context.WithCancel(context.Background())
					if col.cancel {
						go func() {
							select {
							case <-peer.requests:
								cancel()
							case <-ctx.Done():
							}
						}()
					}
					err := row.do(ctx, c)
					cancel()

					switch {
					case col.want == nil && err != nil:
						t.Fatalf("err = %v, want success", err)
					case col.want != nil && !col.want(err):
						t.Fatalf("err = %v (%T), not the error this failure class promises", err, err)
					}
					got := 1 + int(backoffs.draws.Load())
					if peer != nil {
						got = int(peer.attempts.Load())
					}
					if got != col.attempts[r] {
						t.Fatalf("%d attempts, want %d (err %v)", got, col.attempts[r], err)
					}
					if open := c.BreakerOpen(); open != col.breakerOpen {
						t.Fatalf("breaker open = %v afterwards, want %v", open, col.breakerOpen)
					}
				}
			})
		}
	}

	// A shed batch item is that item's typed error, not the request's:
	// the batch succeeds on its first attempt and the breaker stays shut.
	t.Run("batch-item-shed", func(t *testing.T) {
		peer := startLifecyclePeer(t, answering(func(pc *peerConn, tag uint64, _ *Request) {
			pc.send(tag, &Response{Index: 0, Err: overloadedMsg, RetryAfterMS: 7})
			pc.send(tag, &Response{Index: 1})
			pc.send(tag, &Response{Final: true})
		}))
		c := dialMux(t, peer.l.Addr().String(), Options{CallTimeout: 5 * time.Second, Retries: 2, Backoff: time.Millisecond})
		res, err := c.InstantiateBatch([]string{"/bin/a", "/bin/b"})
		if err != nil {
			t.Fatal(err)
		}
		var oe *OverloadedError
		if !errors.As(res[0].Err, &oe) || oe.RetryAfter != 7*time.Millisecond || res[1].Err != nil {
			t.Fatalf("results %+v, want item 0 shed with the 7ms hint and item 1 clean", res)
		}
		if n := peer.attempts.Load(); n != 1 || c.BreakerOpen() {
			t.Fatalf("%d attempts, breaker open = %v; want 1 and false", n, c.BreakerOpen())
		}
	})
}
