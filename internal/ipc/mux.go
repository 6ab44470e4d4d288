package ipc

// Client side of the protocol: the session type.  A session is one
// connection; it runs a single reader goroutine that demultiplexes
// tagged completions to per-call channels, so any number of calls
// share the connection.

import (
	"bufio"
	"context"
	"encoding/gob"
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

	// Send side (guarded by sendMu): a persistent gob encoder into
	// the reused frame buffer — type descriptors cross once, frames
	// go out in a single write each, no allocation in steady state.
	sendMu sync.Mutex
	enc    *gob.Encoder
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

// ensureHandshake opens the connection on first use: an OpHello in a
// self-contained frame, which the server must acknowledge with the
// same protocol version before the connection switches to tagged
// framing.  Transport failures poison the session and the caller's
// retry redials; a refusal poisons it with errHelloRefused, which no
// one retries.
func (s *session) ensureHandshake(deadline time.Time) error {
	s.hsMu.Lock()
	defer s.hsMu.Unlock()
	if s.hsDone {
		return s.hsErr
	}
	s.hsDone = true
	s.conn.SetDeadline(deadline)
	hello := &Request{Op: OpHello, Text: protoVersionText}
	if s.secret != "" {
		// Mesh-peer authentication rides the hello: the nonce asks a
		// secretful server for a challenge (answered below).  A server
		// without the secret ignores it.
		nonce, err := meshNonce()
		if err != nil {
			s.hsErr = err
			s.close()
			return err
		}
		hello.Unit = nonce
	}
	if err := WriteFrame(s.conn, hello); err != nil {
		s.hsErr = err
		s.close()
		return err
	}
	var resp Response
	if err := ReadFrame(s.conn, &resp); err != nil {
		s.hsErr = err
		s.close()
		return err
	}
	if resp.Flag && resp.Text == protoVersionText && s.secret != "" && resp.Output != "" {
		// The server issued a challenge (Output): answer it with the
		// HMAC proof over both nonces before the final ack.  Failing
		// the extra round trip poisons the session like any other
		// handshake transport error.
		proof := &Request{Op: OpHello, Text: protoVersionText,
			Blob: meshProof(s.secret, resp.Output, hello.Unit, protoVersionText)}
		if err := WriteFrame(s.conn, proof); err != nil {
			s.hsErr = err
			s.close()
			return err
		}
		resp = Response{}
		if err := ReadFrame(s.conn, &resp); err != nil {
			s.hsErr = err
			s.close()
			return err
		}
	}
	if !resp.Flag || resp.Text != protoVersionText {
		s.hsErr = fmt.Errorf("%w: %q", errHelloRefused, resp.Err)
		s.close()
		return s.hsErr
	}
	s.conn.SetDeadline(time.Time{})
	s.enc = gob.NewEncoder(&s.sbuf)
	s.calls = make(map[uint64]chan *Response)
	// The hello ack above was read with exact-length reads off the
	// connection; only from here on is the stream buffered.
	go s.readLoop(bufio.NewReaderSize(s.conn, readBufSize))
	return nil
}

// readLoop is the reader goroutine of a session: it demultiplexes
// tagged completions to parked callers.  Frame buffers and header
// scratch are reused across iterations; the persistent decoder is fed
// one payload per frame.  Any failure fails the whole session — every
// parked call errors out and the client redials.
func (s *session) readLoop(br *bufio.Reader) {
	feeder := &payloadFeeder{}
	dec := gob.NewDecoder(feeder)
	var hdr [hdrSize]byte
	var buf []byte
	for {
		tag, payload, err := readTagged(br, &hdr, &buf)
		if err != nil {
			s.fail(err)
			return
		}
		feeder.set(payload)
		resp := new(Response)
		if err := dec.Decode(resp); err != nil {
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
// write.  A send failure fails the session — a partial frame may be
// on the wire and the encoder's stream state is unrecoverable.
func (s *session) send(tag uint64, req *Request, deadline time.Time) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.sbuf.reset()
	if err := s.enc.Encode(req); err != nil {
		err = fmt.Errorf("ipc: encode: %w", err)
		s.fail(err)
		return err
	}
	if s.sbuf.payloadLen() > maxFrame {
		err := fmt.Errorf("ipc: frame too large (%d bytes)", s.sbuf.payloadLen())
		s.fail(err)
		return err
	}
	s.sbuf.seal(tag)
	s.conn.SetWriteDeadline(deadline)
	if _, err := s.conn.Write(s.sbuf.b); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// call is one multiplexed call: register a tag, send the frame,
// park on the tag's channel until the completion, a session failure,
// the deadline, or cancellation.  Deadline and cancellation merely
// abandon the tag — the connection stays healthy for everyone else.
func (s *session) call(ctx context.Context, deadline time.Time, req *Request) (*Response, error) {
	tag, ch, err := s.register(1)
	if err != nil {
		return nil, err
	}
	if err := s.send(tag, req, deadline); err != nil {
		s.deregister(tag)
		return nil, mapTimeout(err)
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	select {
	case resp := <-ch:
		s.deregister(tag)
		return resp, nil
	case <-s.done:
		// The completion may have raced in just before the failure.
		select {
		case resp := <-ch:
			s.deregister(tag)
			return resp, nil
		default:
		}
		return nil, s.failure()
	case <-timerC:
		s.deregister(tag)
		return nil, fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
	case <-ctx.Done():
		s.deregister(tag)
		return nil, ctx.Err()
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
// the server's executor finishes them.  Instantiation is
// idempotent, so transport failures retry with jittered backoff like
// any idempotent call.
func (c *Client) InstantiateBatchCtx(ctx context.Context, paths []string) ([]BatchResult, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	opts := c.options()
	if rem := c.breakerRemaining(); rem > 0 {
		return nil, fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: rem})
	}
	attempts := 1 + opts.Retries
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for {
		results, err := c.batchOnce(ctx, paths, opts)
		if err == nil {
			c.resetBreaker()
			return results, nil
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, ErrDraining) || errors.Is(err, errHelloRefused) {
			return nil, err
		}
		attempts--
		if attempts <= 0 {
			return nil, err
		}
		if serr := sleepCtx(ctx, c.jitter(backoff)); serr != nil {
			return nil, serr
		}
		backoff *= 2
	}
}

// batchOnce performs one batch attempt.
func (c *Client) batchOnce(ctx context.Context, paths []string, opts Options) ([]BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := c.session(opts)
	if err != nil {
		return nil, err
	}
	deadline := callDeadline(ctx, opts)
	if err := s.ensureHandshake(deadline); err != nil {
		return nil, mapTimeout(err)
	}
	req := &Request{Op: OpInstantiateBatch, Args: paths}
	// One tag carries len(paths) item completions plus the Final
	// summary, streamed in whatever order the server finishes them.
	tag, ch, err := s.register(len(paths) + 1)
	if err != nil {
		return nil, err
	}
	if err := s.send(tag, req, deadline); err != nil {
		s.deregister(tag)
		return nil, mapTimeout(err)
	}
	results := make([]BatchResult, len(paths))
	for i := range results {
		results[i].Path = paths[i]
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	record := func(resp *Response) (final bool, err error) {
		if resp.Final {
			switch {
			case resp.Err == drainingMsg:
				return true, fmt.Errorf("omosd: %w", ErrDraining)
			case resp.Err != "":
				return true, fmt.Errorf("omosd: %s", resp.Err)
			}
			return true, nil
		}
		if i := resp.Index; i >= 0 && i < len(results) {
			results[i].Err = batchItemError(resp)
		}
		return false, nil
	}
	for {
		select {
		case resp := <-ch:
			final, err := record(resp)
			if final {
				s.deregister(tag)
				if err != nil {
					return nil, err
				}
				return results, nil
			}
		case <-s.done:
			// Drain completions that raced in before the failure —
			// the Final may already be buffered.
			for {
				select {
				case resp := <-ch:
					final, err := record(resp)
					if !final {
						continue
					}
					s.deregister(tag)
					if err != nil {
						return nil, err
					}
					return results, nil
				default:
					return nil, s.failure()
				}
			}
		case <-timerC:
			s.deregister(tag)
			return nil, fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
		case <-ctx.Done():
			s.deregister(tag)
			return nil, ctx.Err()
		}
	}
}

// meshChunk is the blob chunk size OpMeshFetch streams: large enough
// to amortize framing, small enough that a blob
// transfer never monopolizes the connection's send lock.
const meshChunk = 256 << 10

// maxMeshChunks bounds a streamed fetch's chunk count (a blob is at
// most maxFrame bytes; +1 leaves room for a short tail chunk).
const maxMeshChunks = maxFrame/meshChunk + 1

// MeshFetch asks a mesh peer for a content key's image (OpMeshFetch):
// a metadata-only MeshInfo when the request set HaveBytes and the
// owner confirms a rebase suffices, otherwise the encoded record blob,
// streamed in chunks.  An overload shed trips the
// per-peer breaker and surfaces as *OverloadedError so the caller can
// fall back to a local build immediately.
func (c *Client) MeshFetch(ctx context.Context, mreq *MeshReq) (*MeshInfo, []byte, error) {
	opts := c.options()
	if rem := c.breakerRemaining(); rem > 0 {
		return nil, nil, fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: rem})
	}
	attempts := 1 + opts.Retries
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for {
		info, blob, err := c.meshFetchOnce(ctx, mreq, opts)
		if err == nil {
			c.resetBreaker()
			return info, blob, nil
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, ErrDraining) || errors.Is(err, ErrOverloaded) || errors.Is(err, errHelloRefused) {
			return nil, nil, err
		}
		attempts--
		if attempts <= 0 {
			return nil, nil, err
		}
		if serr := sleepCtx(ctx, c.jitter(backoff)); serr != nil {
			return nil, nil, serr
		}
		backoff *= 2
	}
}

// meshFetchError maps a fetch completion's Err field to a typed error
// (nil for success), tripping the breaker on an overload shed.
func (c *Client) meshFetchError(resp *Response) error {
	switch {
	case resp.Err == "":
		return nil
	case resp.Err == drainingMsg:
		return fmt.Errorf("omosd: %w", ErrDraining)
	case resp.Err == overloadedMsg:
		hold := c.tripBreaker(time.Duration(resp.RetryAfterMS) * time.Millisecond)
		return fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: hold})
	default:
		return fmt.Errorf("omosd: %s", resp.Err)
	}
}

// meshFetchOnce performs one fetch attempt.
func (c *Client) meshFetchOnce(ctx context.Context, mreq *MeshReq, opts Options) (*MeshInfo, []byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s, err := c.session(opts)
	if err != nil {
		return nil, nil, err
	}
	deadline := callDeadline(ctx, opts)
	if err := s.ensureHandshake(deadline); err != nil {
		return nil, nil, mapTimeout(err)
	}
	req := &Request{Op: OpMeshFetch, Mesh: mreq}
	// Chunked blob responses (Index set) close with a Final frame
	// carrying the MeshInfo.  The server writes them sequentially, so
	// they arrive in order.
	tag, ch, err := s.register(maxMeshChunks + 1)
	if err != nil {
		return nil, nil, err
	}
	if err := s.send(tag, req, deadline); err != nil {
		s.deregister(tag)
		return nil, nil, mapTimeout(err)
	}
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timerC = t.C
	}
	var blob []byte
	// finish settles the fetch on its Final frame; both exits below end
	// here, so a short blob is the same error whichever one sees it.
	finish := func(resp *Response) (*MeshInfo, []byte, error) {
		s.deregister(tag)
		if err := c.meshFetchError(resp); err != nil {
			return nil, nil, err
		}
		if resp.Mesh != nil && resp.Mesh.Found && !resp.Mesh.MetaOnly &&
			uint64(len(blob)) != resp.Mesh.Size {
			return nil, nil, fmt.Errorf("ipc: mesh fetch: got %d blob bytes, want %d",
				len(blob), resp.Mesh.Size)
		}
		return resp.Mesh, blob, nil
	}
	for {
		select {
		case resp := <-ch:
			if !resp.Final {
				blob = append(blob, resp.Blob...)
				continue
			}
			return finish(resp)
		case <-s.done:
			// Drain completions that raced in before the failure.
			for {
				select {
				case resp := <-ch:
					if !resp.Final {
						blob = append(blob, resp.Blob...)
						continue
					}
					return finish(resp)
				default:
					return nil, nil, s.failure()
				}
			}
		case <-timerC:
			s.deregister(tag)
			return nil, nil, fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
		case <-ctx.Done():
			s.deregister(tag)
			return nil, nil, ctx.Err()
		}
	}
}

// batchItemError maps one streamed item completion to its error: nil,
// a typed *OverloadedError (that item was shed at the admission gate
// — retry-safe), or the server's error text.
func batchItemError(resp *Response) error {
	switch {
	case resp.Err == "":
		return nil
	case resp.Err == overloadedMsg:
		hint := time.Duration(resp.RetryAfterMS) * time.Millisecond
		if hint <= 0 {
			hint = minBreakerHold
		}
		return fmt.Errorf("omosd: %w", &OverloadedError{RetryAfter: hint})
	default:
		return fmt.Errorf("omosd: %s", resp.Err)
	}
}
