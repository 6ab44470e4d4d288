package ipc

// Server side of the tagged-frame protocol.  serveConn hands a
// connection here after acknowledging its hello: a read loop decodes
// tagged requests through one buffered reader and hands each to a
// bounded set of persistent per-connection workers, and completions
// are written back as they land — out of order — under a send mutex.
// Robustness holds per tag: a draining server answers every late tag
// with a clean ErrDraining, the inflight ledger spans every admitted
// tag (so Shutdown waits for all of them), and a handler panic is
// contained to its connection, never the accept loop.

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"

	"omos/internal/fault"
)

// tagWork is one admitted request on its way to a worker.  The request
// travels by value: the read loop decodes into its own scratch copy and
// the worker handles its received copy, so a call allocates no Request.
type tagWork struct {
	tag uint64
	req Request
}

// muxConn is one connection's shared state: the send half (a reused
// frame buffer, serialized by sendMu so concurrent handlers interleave
// whole frames, never bytes) and the hand-off between the read loop
// and its workers.
type muxConn struct {
	conn   net.Conn
	faults *fault.Set
	// authed reports whether this connection's hello carried a valid
	// proof of the mesh secret (set once at upgrade, read-only after).
	authed bool

	sendMu sync.Mutex
	sbuf   sendBuf

	// pool holds one slot per admitted tag from hand-off until its
	// Final frame is written: the concurrent-handler bound, and the
	// reader's backpressure when full.
	pool chan struct{}
	// queue carries work from the read loop to a worker that announced
	// itself free (see idle); it is closed when the read loop ends.
	queue chan tagWork
	// idle counts workers free to take the next tag: parked on queue,
	// or past everything but the write of their tag's Final frame.
	// Workers increment it, only the read loop decrements it (claiming
	// a worker before each send on queue).  Announcing before the write
	// rather than after it is what makes reuse deterministic: the peer
	// cannot react to a completion before that point, so a caller that
	// issues its calls one after another always finds its worker idle.
	// The price is that a tag claimed for a worker still in that write
	// starts when the write returns, not at once.
	idle    atomic.Int32
	workers sync.WaitGroup
}

// write seals and sends one tagged completion in a single conn.Write.
func (m *muxConn) write(tag uint64, resp *Response) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	m.sbuf.reset()
	encodeResponse(&m.sbuf.b, resp)
	if err := m.sbuf.seal(tag); err != nil {
		return err
	}
	// Corrupt-kind rules at ipc.write damage the tag field in place:
	// a deterministic tag-mismatch at the receiver without desyncing
	// the framing (which damaged length bytes would).
	copy(m.sbuf.tagBytes(), m.faults.Corrupt(fault.SiteIPCWrite, m.sbuf.tagBytes()))
	_, err := m.conn.Write(m.sbuf.b)
	return err
}

// handlerPool is the per-connection concurrent handler bound.
func (s *Server) handlerPool() int {
	if s.HandlerPool > 0 {
		return s.HandlerPool
	}
	return DefaultHandlerPool
}

// serveMux runs one greeted connection until it dies or the drain
// deadline expires.  The read loop never handles requests itself: each
// decoded request takes a pool slot (blocking when the pool is
// saturated — backpressure reaches the peer through the transport) and
// goes to a free worker, or to a new one while fewer than the pool
// size exist, so a slow request never delays the tags behind it.
// Workers live as long as the connection: a warm goroutine keeps the
// stack it grew through the backend instead of regrowing it on every
// tag.
//
// The buffered reader is created here, after the hello exchange was
// read with exact-length reads straight off conn, so no hello byte can
// be stranded in it; deadlines stay on conn and reach the loop through
// the reader's next fill.
func (s *Server) serveMux(conn net.Conn, authed bool) {
	m := &muxConn{conn: conn, faults: s.faults, authed: authed,
		pool: make(chan struct{}, s.handlerPool()), queue: make(chan tagWork)}
	br := bufio.NewReaderSize(conn, readBufSize)
	defer func() {
		// Close first so a handler blocked writing cannot stall the
		// teardown, then wait so the connection is not unregistered
		// (by serveConn) while workers still reference it.
		conn.Close()
		close(m.queue)
		m.workers.Wait()
	}()
	var hdr [hdrSize]byte
	var buf []byte
	var w tagWork
	for {
		if err := s.faults.Fire(fault.SiteIPCRead); err != nil {
			return // simulated receive failure: drop the connection
		}
		tag, payload, err := readTagged(br, &hdr, &buf)
		if err != nil {
			// EOF, a drain-deadline expiry, or a damaged frame: all
			// fatal to this connection only.
			return
		}
		w.tag = tag
		if err := decodeRequest(payload, &w.req); err != nil {
			return
		}
		// Admit under the lock: a tag is either in the inflight
		// ledger before Shutdown flips closed (and thus drained), or
		// refused per-tag with a clean draining answer.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if err := m.write(tag, &Response{Err: drainingMsg, Final: true}); err != nil {
				return
			}
			continue
		}
		s.inflight.Add(1)
		s.mu.Unlock()
		m.pool <- struct{}{} // blocks when the pool is saturated
		// Every worker not counted idle owns a tag that still holds a
		// slot, and this tag holds one more: when none is idle, fewer
		// workers than slots exist and one more may start.
		if m.idle.Load() > 0 {
			m.idle.Add(-1)
			m.queue <- w
			continue
		}
		m.workers.Add(1)
		go s.muxWorker(m, w)
	}
}

// muxWorker handles its first tag, then whatever the read loop queues,
// until the connection tears down.
func (s *Server) muxWorker(m *muxConn, w tagWork) {
	defer m.workers.Done()
	for ok := true; ok; w, ok = <-m.queue {
		s.handleTag(m, w.tag, &w.req)
	}
}

// handleTag runs one admitted request and writes its completion(s).
func (s *Server) handleTag(m *muxConn, tag uint64, req *Request) {
	defer func() { <-m.pool }()
	defer s.inflight.Done()
	announced := false
	defer func() {
		// An escaped panic (e.g. an injected write fault of kind
		// panic) costs this connection, never the daemon: the
		// response stream's integrity is unknown, so the connection
		// is shut and the client fails every tag still parked on it.
		if r := recover(); r != nil {
			s.recovered.Add(1)
			m.conn.Close()
		}
		if !announced {
			m.idle.Add(1) // a path that wrote no Final frame
		}
	}()
	final := s.runTag(m, tag, req)
	if final == nil {
		return
	}
	final.Final = true
	announced = true
	m.idle.Add(1)
	if err := m.write(tag, final); err != nil {
		m.conn.Close()
	}
}

// runTag does a tag's work, streaming any non-final frames itself, and
// returns the completion that closes the tag — nil when the connection
// was dropped instead.  The ipc.write fault site fires here for every
// kind of tag: after the work, before the frame (or the chunks) that
// would report it.
func (s *Server) runTag(m *muxConn, tag uint64, req *Request) *Response {
	var resp *Response
	if req.Op == OpInstantiateBatch {
		resp = s.handleBatchMux(m, tag, req)
	} else {
		resp = s.safeHandle(req, m.authed)
	}
	if err := s.faults.Fire(fault.SiteIPCWrite); err != nil {
		m.conn.Close() // simulated send failure: completion lost, conn dropped
		return nil
	}
	if req.Op == OpMeshFetch {
		return streamBlob(m, tag, resp)
	}
	return resp
}

// handleBatchMux streams one batch request: every item lands as its
// own tagged response (Index set, Final false) the moment the
// executor finishes it — out of order, from concurrent goroutines —
// and the returned Final summary closes the batch.  One inflight
// credit spans the whole batch, so graceful drain waits for every
// item.  Per-item failures (including admission sheds, which carry the
// retry-after hint) stay per item and never abort siblings.
func (s *Server) handleBatchMux(m *muxConn, tag uint64, req *Request) *Response {
	s.b.InstantiateBatch(req.Args, func(i int, err error) {
		resp := &Response{Index: i}
		if err != nil {
			applyError(resp, err)
		}
		// A dead connection fails every write; the batch still runs
		// to completion server-side (the work is cache-warming — not
		// wasted).
		m.write(tag, resp)
	})
	return &Response{}
}

// streamBlob sends a mesh fetch's reply: a not-found reply is the
// returned Final frame alone, while a blob reply travels
// first as meshChunk-sized chunk frames (Index set, Final false), the
// Final frame carrying the MeshInfo.  The chunks are written
// sequentially from this one goroutine, so they arrive in order.
func streamBlob(m *muxConn, tag uint64, resp *Response) *Response {
	blob := resp.Blob
	resp.Blob = nil
	for i := 0; len(blob) > 0; i++ {
		n := len(blob)
		if n > meshChunk {
			n = meshChunk
		}
		if err := m.write(tag, &Response{Index: i, Blob: blob[:n]}); err != nil {
			m.conn.Close()
			return nil
		}
		blob = blob[n:]
	}
	return resp
}
