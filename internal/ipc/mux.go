package ipc

// Client side of the protocol: the session type.  A session is one
// connection; it runs a single reader goroutine that demultiplexes
// tagged completions to per-call channels, so any number of calls
// share the connection.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// session is one client connection.  It is created in a
// pre-handshake state; the first call completes the hello exchange
// (so connect-time failures flow through that call's retry budget)
// and starts the reader goroutine.
type session struct {
	conn net.Conn
	// secret, when set, makes the hello request a server challenge
	// and answer it with a mesh-peer HMAC proof (see meshProof) so
	// the server authenticates this connection.
	secret string

	// Handshake state, serialized by hsMu.
	hsMu   sync.Mutex
	hsDone bool
	hsErr  error

	// dead flips once the session is unusable; the client redials.
	dead atomic.Bool

	// Send side (guarded by sendMu): the reused frame buffer — frames
	// go out in a single write each, no allocation in steady state.
	sendMu sync.Mutex
	sbuf   sendBuf

	// Receive side: the tag table shared between callers and the
	// reader goroutine (guarded by tagMu).  Each in-flight tag maps to
	// its completion channel, buffered with the expected completion
	// count (1 for a call, items+1 for a batch) so the reader never
	// blocks delivering and a duplicate completion is detectably
	// droppable.  A channel belongs to one tag for life — it is never
	// recycled, so a completion that arrives after its tag was
	// abandoned can only be discarded, never answer another call.  err
	// is set exactly once, before done closes; calls is nil afterwards.
	tagMu   sync.Mutex
	nextTag uint64
	calls   map[uint64]chan *Response
	err     error
	done    chan struct{}
}

func newSession(conn net.Conn, secret string) *session {
	return &session{conn: conn, secret: secret, done: make(chan struct{})}
}

func (s *session) isDead() bool { return s.dead.Load() }

// close tears the session down; in-flight calls fail with a
// transport error when the reader notices.
func (s *session) close() error {
	s.dead.Store(true)
	return s.conn.Close()
}

// ensureHandshake opens the connection on first use.  Transport
// failures poison the session and the caller's retry redials; a refusal
// poisons it with errHelloRefused, which no one retries.
func (s *session) ensureHandshake(deadline time.Time) error {
	s.hsMu.Lock()
	defer s.hsMu.Unlock()
	if !s.hsDone {
		s.hsDone = true
		if s.hsErr = s.handshake(deadline); s.hsErr != nil {
			s.close()
		}
	}
	return s.hsErr
}

// handshake is the hello exchange: a hello in the gate's own framing,
// which the server must acknowledge before the connection switches to
// tagged framing and the reader goroutine starts.
func (s *session) handshake(deadline time.Time) error {
	s.conn.SetDeadline(deadline)
	h := hello{Version: protoVersion}
	if s.secret != "" {
		// Mesh-peer authentication rides the hello: the nonce asks a
		// secretful server for a challenge (answered below).  A server
		// without the secret ignores it.
		nonce, err := meshNonce()
		if err != nil {
			return err
		}
		h.Text = nonce
	}
	ack, err := s.greet(&h)
	if err != nil {
		return err
	}
	if ack.Ack && s.secret != "" && ack.Text != "" {
		// The server issued a challenge: answer it with the HMAC proof
		// over both nonces before the final ack.  Failing the extra
		// round trip poisons the session like any other handshake
		// transport error.
		if ack, err = s.greet(&hello{Version: protoVersion,
			Proof: meshProof(s.secret, ack.Text, h.Text, protoVersionText)}); err != nil {
			return err
		}
	}
	if !ack.Ack {
		return fmt.Errorf("%w: %q", errHelloRefused, ack.Text)
	}
	s.conn.SetDeadline(time.Time{})
	s.calls = make(map[uint64]chan *Response)
	// The hello ack above was read with exact-length reads off the
	// connection; only from here on is the stream buffered.
	go s.readLoop(bufio.NewReaderSize(s.conn, readBufSize))
	return nil
}

// greet sends one hello and reads the server's answer.  An answer that
// is not a hello of this version is a refusal: the server speaks
// another protocol.
func (s *session) greet(h *hello) (ack hello, err error) {
	if err := writeHello(s.conn, h); err != nil {
		return ack, err
	}
	err = readHello(s.conn, &ack)
	var fe *FrameError
	if errors.As(err, &fe) && fe.Reason == "malformed" && ack.Version != protoVersion {
		return ack, fmt.Errorf("%w: %v", errHelloRefused, fe.Err)
	}
	return ack, err
}

// readLoop is the reader goroutine of a session: it demultiplexes
// tagged completions to parked callers.  Frame buffers and header
// scratch are reused across iterations; each completion is decoded
// into a fresh Response that owns all its values.  Any failure fails
// the whole session — every parked call errors out and the client
// redials.
func (s *session) readLoop(br *bufio.Reader) {
	var hdr [hdrSize]byte
	var buf []byte
	for {
		tag, payload, err := readTagged(br, &hdr, &buf)
		if err != nil {
			s.fail(err)
			return
		}
		resp := new(Response)
		if err := decodeResponse(payload, resp); err != nil {
			s.fail(&FrameError{Reason: "malformed", Err: err})
			return
		}
		s.tagMu.Lock()
		ch, ok := s.calls[tag]
		issued := tag > 0 && tag <= s.nextTag
		s.tagMu.Unlock()
		if !ok {
			if issued {
				// Late completion for an abandoned (timed-out or
				// canceled) tag: discard; the connection is healthy.
				continue
			}
			// A tag this session never issued: the stream is corrupt
			// (bit damage, a confused server).  Nothing on it can be
			// trusted any more.
			s.fail(&FrameError{Reason: "tag-mismatch",
				Err: fmt.Errorf("completion for tag %d, never issued", tag)})
			return
		}
		select {
		case ch <- resp:
		default:
			// Duplicate completion beyond the tag's expected count:
			// drop it; the tag's caller already has its answer and
			// the connection survives.
		}
	}
}

// fail marks the session dead with err: parked calls wake via done,
// later registrations are refused.  Idempotent; the first cause wins.
func (s *session) fail(err error) {
	s.tagMu.Lock()
	if s.err == nil {
		if err == nil {
			err = errors.New("ipc: session closed")
		}
		s.err = err
		s.calls = nil
		close(s.done)
	}
	s.tagMu.Unlock()
	s.dead.Store(true)
	s.conn.Close()
}

// failure returns why the session died (nil while alive).
func (s *session) failure() error {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	return s.err
}

// register assigns the next tag, expecting want completions.
func (s *session) register(want int) (uint64, chan *Response, error) {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	if s.err != nil {
		return 0, nil, s.err
	}
	s.nextTag++
	ch := make(chan *Response, want)
	s.calls[s.nextTag] = ch
	return s.nextTag, ch, nil
}

// deregister abandons a tag; a completion arriving later is discarded
// by the reader.
func (s *session) deregister(tag uint64) {
	s.tagMu.Lock()
	if s.calls != nil {
		delete(s.calls, tag)
	}
	s.tagMu.Unlock()
}

// send writes one tagged request frame under the send lock: encode
// into the reused buffer after the reserved header hole, seal, one
// write.  A frame too large to send is refused before any byte of it
// is written, so the session lives on; a write failure fails the
// session — a partial frame may be on the wire.
func (s *session) send(tag uint64, req *Request, deadline time.Time) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.sbuf.reset()
	encodeRequest(&s.sbuf.b, req)
	if err := s.sbuf.seal(tag); err != nil {
		return err
	}
	s.conn.SetWriteDeadline(deadline)
	if _, err := s.conn.Write(s.sbuf.b); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// stream is the one request exchange of a session: register a tag
// expecting want completions, send the frame, and park on the tag's
// channel until the frame that closes it, a session failure, the
// deadline, or cancellation.  A plain call (onFrame nil) is closed by
// its first completion; a streamed request hands every non-Final frame
// to onFrame, on this goroutine, and is closed by its Final frame.
// Deadline and cancellation merely abandon the tag — the connection
// stays healthy for everyone else.
func (s *session) stream(ctx context.Context, deadline time.Time, req *Request, want int, onFrame func(*Response)) (*Response, error) {
	tag, ch, err := s.register(want)
	if err != nil {
		return nil, err
	}
	defer s.deregister(tag)
	if err := s.send(tag, req, deadline); err != nil {
		return nil, mapTimeout(err)
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	for {
		var resp *Response
		select {
		case resp = <-ch:
		case <-s.done:
			// Completions may have raced in just before the failure —
			// the closing frame may already be buffered.  Take what is
			// there; the failure is the answer only once it runs dry.
			select {
			case resp = <-ch:
			default:
				return nil, s.failure()
			}
		case <-timerC:
			return nil, fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if onFrame == nil || resp.Final {
			return resp, nil
		}
		onFrame(resp)
	}
}

// BatchResult is one item's outcome from InstantiateBatch.
type BatchResult struct {
	Path string
	Err  error
}

// InstantiateBatch asks the daemon to instantiate every named
// meta-object in one request (OpInstantiateBatch), warming its image
// cache in parallel.  Results are positional; a per-item failure
// lands in that item's Err and never aborts its siblings.
func (c *Client) InstantiateBatch(paths []string) ([]BatchResult, error) {
	return c.InstantiateBatchCtx(context.Background(), paths)
}

// InstantiateBatchCtx is InstantiateBatch bounded by ctx and the
// configured CallTimeout.  The per-item completions stream back as
// the server's executor finishes them.  An item's error is decoded
// like any reply's (a shed item is a typed *refusal.OverloadError,
// safe to retry) but stays that item's: only the Final summary speaks
// for the request.
func (c *Client) InstantiateBatchCtx(ctx context.Context, paths []string) ([]BatchResult, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	results := make([]BatchResult, len(paths))
	for i := range results {
		results[i].Path = paths[i]
	}
	// One tag carries len(paths) item completions plus the Final
	// summary, streamed in whatever order the server finishes them.  A
	// retried attempt reports every item again, so it overwrites whatever
	// a failed one recorded.
	_, err := c.do(ctx, &Request{Op: OpInstantiateBatch, Args: paths}, len(paths)+1, func(item *Response) {
		if i := item.Index; i >= 0 && i < len(results) {
			results[i].Err = wireError(item)
		}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// meshChunk is the blob chunk size OpMeshFetch streams: large enough
// to amortize framing, small enough that a blob
// transfer never monopolizes the connection's send lock.
const meshChunk = 256 << 10

// maxMeshChunks bounds a streamed fetch's chunk count (a blob is at
// most maxFrame bytes; +1 leaves room for a short tail chunk).
const maxMeshChunks = maxFrame/meshChunk + 1

// MeshFetch asks a mesh peer for a content key's image (OpMeshFetch):
// the encoded record blob, streamed in chunks.  An overload shed trips the per-peer breaker and
// surfaces as *refusal.OverloadError so the caller can fall back to a
// local build immediately.
func (c *Client) MeshFetch(ctx context.Context, mreq *MeshReq) (*MeshInfo, []byte, error) {
	var blob []byte
	// Chunked blob responses (Index set) close with a Final frame
	// carrying the MeshInfo.  The server writes them sequentially, so
	// they arrive in order — and chunk 0 opens an attempt: a retried
	// fetch starts its blob over.
	resp, err := c.do(ctx, &Request{Op: OpMeshFetch, Mesh: mreq}, maxMeshChunks+1, func(chunk *Response) {
		if chunk.Index == 0 {
			blob = blob[:0]
		}
		blob = append(blob, chunk.Blob...)
	})
	if err != nil {
		return nil, nil, err
	}
	info := resp.Mesh
	if info == nil || !info.Found {
		return info, nil, nil // no bytes belong to such a reply
	}
	if uint64(len(blob)) != info.Size {
		return nil, nil, fmt.Errorf("ipc: mesh fetch: got %d blob bytes, want %d", len(blob), info.Size)
	}
	return info, blob, nil
}
