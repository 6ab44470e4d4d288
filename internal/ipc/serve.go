package ipc

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/fault"
)

// RunOutcome reports a program execution performed by the daemon.
type RunOutcome struct {
	ExitCode                uint64
	Output                  string
	User, Sys, Server, Wait uint64
}

// Backend is the set of daemon operations the protocol exposes; the
// omosd command implements it over an omos.System.
type Backend interface {
	Define(path, blueprint string) error
	DefineLibrary(path, blueprint string) error
	PutObjectBytes(path string, rof []byte) error
	AssembleTo(path, src string) error
	CompileTo(dir, unit, src string) ([]string, error)
	List(prefix string) []string
	Remove(path string)
	Run(name string, args []string, bootstrap bool) (RunOutcome, error)
	Disasm(path string) (string, error)
	Stats() string
	// ExportMeta and ExportObject serve namespace federation (another
	// OMOS server mounting this one, §10).
	ExportMeta(path string) (src string, isLibrary bool, err error)
	ExportObject(path string) ([]byte, error)
}

// HealthBackend is optionally implemented by backends that can report
// robustness counters; OpHealth works (with transport-level fields
// only) even when the backend cannot.
type HealthBackend interface {
	Health() HealthInfo
}

// GraphBackend is optionally implemented by backends that can render
// the server's build graph; OpGraph answers an error when the backend
// cannot.
type GraphBackend interface {
	Graph() string
}

// ExplainBackend is optionally implemented by backends that can
// report the binding audit trail for a symbol (OpExplain); OpExplain
// answers an error when the backend cannot.
type ExplainBackend interface {
	Explain(sym string) (string, error)
}

// RebindBackend is optionally implemented by backends that enforce
// the rebind guard: namespace mutations carry the request's
// AllowRebind flag so a mutation that would silently re-bind a live
// program's symbol is refused unless the caller made it explicit.
// Without it, OpDefine/OpDefineLib/OpRemove fall back to the plain
// Backend methods (no guard at the wire level).
type RebindBackend interface {
	DefineAllow(path, blueprint string, allow bool) error
	DefineLibraryAllow(path, blueprint string, allow bool) error
	RemoveAllow(path string, allow bool) error
}

// UpgradeBackend is optionally implemented by backends that support
// live library upgrades (OpUpgrade/OpUpgradeStatus/OpRollback): epoch
// open, staging, write-ahead commit, and rollback.  The epoch itself
// carries the rebind allow, so staged definitions apply atomically at
// commit without per-call AllowRebind flags.
type UpgradeBackend interface {
	UpgradeStart(canaryPct int) (string, error)
	UpgradeStage(path, blueprint string, isLib bool) error
	UpgradeCommit() error
	UpgradeRollback(reason string) error
	// UpgradeStatus returns the engine's one-line status and whether an
	// epoch is currently open.
	UpgradeStatus() (line string, active bool)
}

// MeshBackend is optionally implemented by backends federated into a
// daemon mesh (internal/mesh): content-key fetch/offer between shard
// owners, anti-entropy gossip, and membership rebalance.  When the
// server has a MeshSecret these operations additionally require the
// connection to have authenticated via the hello challenge-response.
type MeshBackend interface {
	MeshFetch(req *MeshReq) (*MeshInfo, []byte, error)
	MeshPut(req *MeshReq) error
	MeshGossip(req *MeshReq) (*MeshInfo, error)
	MeshRebalance(req *MeshReq) (*MeshInfo, error)
}

// meshAuthMsg is the wire form of a mesh operation refused because the
// connection never proved the shared secret.
const meshAuthMsg = "mesh peer not authenticated"

// BatchBackend is optionally implemented by backends that can
// instantiate a vector of meta-objects in one request
// (OpInstantiateBatch).  done is called exactly once per index — from
// any goroutine, in any order — as each item completes; err is nil on
// success.  InstantiateBatch returns when every item has completed.
type BatchBackend interface {
	InstantiateBatch(paths []string, done func(i int, err error))
}

// DefaultDrainGrace is how long a draining server keeps answering
// ErrDraining to retrying clients before closing their connections.
const DefaultDrainGrace = 250 * time.Millisecond

// DefaultHandlerPool bounds how many requests one connection may have
// in handlers at once.  When the pool is full the
// connection's read loop blocks, so backpressure reaches the peer
// through the transport instead of unbounded goroutine growth; the
// admission gate behind the handlers still bounds total build
// concurrency across all connections.
const DefaultHandlerPool = 32

// Server accepts protocol connections for a Backend and supports
// graceful shutdown: stop accepting, let every in-flight request
// finish and its response flush, then — for DrainGrace — answer any
// straggler request with a clean draining error instead of a reset,
// and only then close the idle connections.
type Server struct {
	b Backend

	// DrainGrace overrides DefaultDrainGrace when set before Serve.
	DrainGrace time.Duration

	// HandlerPool overrides DefaultHandlerPool (per-connection
	// concurrent handler bound) when set before Serve.
	HandlerPool int

	// MeshSecret, when set before Serve, gates the mesh operations:
	// only connections that answered the hello challenge with a valid
	// HMAC proof of this shared secret may issue them (see
	// helloUpgrade).  Ordinary client operations are unaffected.
	MeshSecret string

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	inflight sync.WaitGroup
	connWG   sync.WaitGroup

	recovered atomic.Uint64
	faults    *fault.Set
}

// NewServer returns a server for the backend.
func NewServer(b Backend) *Server {
	return &Server{b: b, conns: map[net.Conn]bool{}, DrainGrace: DefaultDrainGrace}
}

// SetFaults arms deterministic fault injection on the transport
// (sites ipc.read and ipc.write).  Call before Serve.
func (s *Server) SetFaults(f *fault.Set) { s.faults = f }

// Recovered returns the number of panics recovered in connection
// handlers (each failed one request, never the daemon).
func (s *Server) Recovered() uint64 { return s.recovered.Load() }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Serve accepts connections on l until the listener closes or
// Shutdown is called.  Each connection may issue any number of
// requests.  After Shutdown, Serve returns nil.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown stops accepting, waits for in-flight requests to complete
// (their responses are written), then gives connected clients a grace
// window in which any further request is answered with a clean
// draining error rather than a connection reset.  When the window
// closes, every connection is shut.  Safe to call more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	l := s.listener
	grace := s.DrainGrace
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.inflight.Wait()
	// Nudge every idle reader: after the grace deadline its ReadFrame
	// fails and the handler closes the connection itself.  Until then
	// a client that races its request against our SIGTERM gets a
	// typed "draining" response, not a RST mid-frame.
	deadline := time.Now().Add(grace)
	s.mu.Lock()
	for conn := range s.conns {
		// Read and write both: a handler stuck writing to a client
		// that stopped reading must not hold Shutdown hostage.
		conn.SetDeadline(deadline)
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = map[net.Conn]bool{}
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		// A panic anywhere in this connection's handling (including
		// injected transport faults) costs the connection, never the
		// accept loop.
		if r := recover(); r != nil {
			s.recovered.Add(1)
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if err := s.faults.Fire(fault.SiteIPCRead); err != nil {
		return // simulated receive failure: drop the connection
	}
	var req Request
	if err := ReadFrame(conn, &req); err != nil {
		// EOF, a drain-deadline expiry, or a damaged frame
		// (*FrameError): all fatal to this connection only.
		return
	}
	if req.Op != OpHello {
		// Not a peer of this protocol (the hello has opened every
		// connection since version 2): one refusal it can read, then
		// close.  Nothing was dispatched.
		WriteFrame(conn, &Response{Err: helloRequiredMsg})
		return
	}
	// Acknowledge in the hello's own framing, then the connection
	// switches to tagged frames.  When both sides hold the mesh secret
	// the hello also runs the challenge-response that marks the
	// connection as an authenticated peer; a wrong proof still opens
	// the connection — only the mesh operations are gated.
	authed, ok := s.helloUpgrade(conn, &req)
	if !ok {
		return
	}
	s.serveMux(conn, authed)
}

// helloRequiredMsg refuses a connection whose first frame is not a
// hello.
const helloRequiredMsg = "protocol version " + protoVersionText + " required: a connection opens with a hello"

// helloUpgrade acknowledges a hello in its own framing and, when this
// server has a mesh secret and the hello carried a client nonce, runs
// the peer-auth challenge-response: the ack carries a fresh server
// nonce (Output), the client answers with one more hello frame
// whose Blob is meshProof(secret, server nonce, client nonce,
// version), and a final ack closes the exchange.  The server nonce is
// issued here, never chosen by the client, so a proof captured off one
// connection never authenticates another.  ok=false means the
// connection must be dropped (transport failure, a malformed
// continuation, or no secure randomness for the challenge).
func (s *Server) helloUpgrade(conn net.Conn, req *Request) (authed, ok bool) {
	challenge := ""
	if s.MeshSecret != "" && req.Unit != "" {
		c, err := meshNonce()
		if err != nil {
			// No secure challenge possible: refuse the connection
			// rather than authenticate against a guessable nonce.
			return false, false
		}
		challenge = c
	}
	if err := s.faults.Fire(fault.SiteIPCWrite); err != nil {
		return false, false
	}
	if err := WriteFrame(conn, &Response{Text: protoVersionText, Flag: true, Output: challenge}); err != nil {
		return false, false
	}
	if challenge == "" {
		return false, true
	}
	var proof Request
	if err := ReadFrame(conn, &proof); err != nil {
		return false, false
	}
	if proof.Op != OpHello {
		return false, false
	}
	authed = hmac.Equal(proof.Blob, meshProof(s.MeshSecret, challenge, req.Unit, protoVersionText))
	if err := WriteFrame(conn, &Response{Text: protoVersionText, Flag: true}); err != nil {
		return false, false
	}
	return authed, true
}

// safeHandle dispatches one request with panic isolation: a panicking
// handler produces an error response and a Recovered increment, and
// the connection lives on.  authed reports whether the connection
// proved the mesh secret at hello time.
func (s *Server) safeHandle(req *Request, authed bool) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered.Add(1)
			resp = &Response{Err: fmt.Sprintf("internal error: recovered panic: %v", r)}
		}
	}()
	return s.handle(req, authed)
}

// Serve accepts connections until the listener closes.  Each
// connection may issue any number of requests.
func Serve(l net.Listener, b Backend) error {
	return NewServer(b).Serve(l)
}

// applyError records err on resp.  An admission-gate shed travels as
// the overloaded sentinel plus the server's retry-after hint; a
// rebind rejection or pin violation travels as its sentinel plus the
// structured detail (all matched structurally so this package need
// not import the server's error types); anything else travels as its
// text.
func applyError(resp *Response, err error) {
	var ra interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &ra) {
		resp.Err = overloadedMsg
		resp.RetryAfterMS = int64(ra.RetryAfterHint() / time.Millisecond)
		if resp.RetryAfterMS < 1 {
			resp.RetryAfterMS = 1
		}
		return
	}
	var rb interface {
		RebindDetail() (mutation, path, program, symbol, definer string)
	}
	if errors.As(err, &rb) {
		m, p, prog, sym, def := rb.RebindDetail()
		resp.Err = rebindMsg
		resp.Rebind = &RebindInfo{Mutation: m, Path: p, Program: prog, Symbol: sym, Definer: def}
		return
	}
	var pv interface {
		PinDetail() (image, lib, field, want, got string)
	}
	if errors.As(err, &pv) {
		img, lib, field, want, got := pv.PinDetail()
		resp.Err = pinViolationMsg
		resp.Pin = &PinInfo{Image: img, Lib: lib, Field: field, Want: want, Got: got}
		return
	}
	var ua interface {
		UpgradeDetail() (epoch, verdict string, auto bool)
	}
	if errors.As(err, &ua) {
		epoch, verdict, auto := ua.UpgradeDetail()
		resp.Err = upgradeAbortedMsg
		resp.Upgrade = &UpgradeAbortedInfo{Epoch: epoch, Verdict: verdict, Auto: auto}
		return
	}
	resp.Err = err.Error()
}

func (s *Server) handle(req *Request, authed bool) *Response {
	b := s.b
	resp := &Response{}
	fail := func(err error) *Response {
		applyError(resp, err)
		return resp
	}
	switch req.Op {
	case OpPing:
		resp.Text = "omos server: alive"
	case OpDefine:
		if rb, ok := b.(RebindBackend); ok {
			if err := rb.DefineAllow(req.Path, req.Text, req.AllowRebind); err != nil {
				return fail(err)
			}
		} else if err := b.Define(req.Path, req.Text); err != nil {
			return fail(err)
		}
	case OpDefineLib:
		if rb, ok := b.(RebindBackend); ok {
			if err := rb.DefineLibraryAllow(req.Path, req.Text, req.AllowRebind); err != nil {
				return fail(err)
			}
		} else if err := b.DefineLibrary(req.Path, req.Text); err != nil {
			return fail(err)
		}
	case OpPutObject:
		if err := b.PutObjectBytes(req.Path, req.Blob); err != nil {
			return fail(err)
		}
	case OpAssemble:
		if err := b.AssembleTo(req.Path, req.Text); err != nil {
			return fail(err)
		}
	case OpCompile:
		paths, err := b.CompileTo(req.Path, req.Unit, req.Text)
		if err != nil {
			return fail(err)
		}
		resp.Paths = paths
	case OpList:
		resp.Paths = b.List(req.Path)
	case OpRemove:
		if rb, ok := b.(RebindBackend); ok {
			if err := rb.RemoveAllow(req.Path, req.AllowRebind); err != nil {
				return fail(err)
			}
		} else {
			b.Remove(req.Path)
		}
	case OpRun, OpRunBoot:
		out, err := b.Run(req.Path, req.Args, req.Op == OpRunBoot)
		if err != nil {
			return fail(err)
		}
		resp.ExitCode = out.ExitCode
		resp.Output = out.Output
		resp.User, resp.Sys, resp.Server, resp.Wait = out.User, out.Sys, out.Server, out.Wait
	case OpDisasm:
		text, err := b.Disasm(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Text = text
	case OpStats:
		resp.Text = b.Stats()
	case OpGetMeta:
		src, isLib, err := b.ExportMeta(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Text = src
		resp.Flag = isLib
	case OpGetObject:
		blob, err := b.ExportObject(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Blob = blob
	case OpHealth:
		var hi HealthInfo
		if hb, ok := b.(HealthBackend); ok {
			hi = hb.Health()
		}
		hi.Recovered += s.recovered.Load()
		hi.Draining = s.Draining()
		resp.Health = &hi
	case OpGraph:
		gb, ok := b.(GraphBackend)
		if !ok {
			return fail(fmt.Errorf("backend does not expose a build graph"))
		}
		resp.Text = gb.Graph()
	case OpExplain:
		eb, ok := b.(ExplainBackend)
		if !ok {
			return fail(fmt.Errorf("backend does not expose binding provenance"))
		}
		text, err := eb.Explain(req.Path)
		if err != nil {
			return fail(err)
		}
		resp.Text = text
	case OpUpgrade:
		ub, ok := b.(UpgradeBackend)
		if !ok {
			return fail(fmt.Errorf("backend does not support live upgrades"))
		}
		switch req.Unit {
		case "start":
			pct := 100
			if req.Text != "" {
				n, err := strconv.Atoi(req.Text)
				if err != nil {
					return fail(fmt.Errorf("bad canary percentage %q", req.Text))
				}
				pct = n
			}
			id, err := ub.UpgradeStart(pct)
			if err != nil {
				return fail(err)
			}
			resp.Text = id
		case "stage":
			isLib := len(req.Args) > 0 && req.Args[0] == "lib"
			if err := ub.UpgradeStage(req.Path, req.Text, isLib); err != nil {
				return fail(err)
			}
		case "commit":
			if err := ub.UpgradeCommit(); err != nil {
				return fail(err)
			}
		default:
			return fail(fmt.Errorf("unknown upgrade phase %q", req.Unit))
		}
	case OpUpgradeStatus:
		ub, ok := b.(UpgradeBackend)
		if !ok {
			return fail(fmt.Errorf("backend does not support live upgrades"))
		}
		line, active := ub.UpgradeStatus()
		resp.Text = line
		resp.Flag = active
	case OpRollback:
		ub, ok := b.(UpgradeBackend)
		if !ok {
			return fail(fmt.Errorf("backend does not support live upgrades"))
		}
		if err := ub.UpgradeRollback(req.Text); err != nil {
			return fail(err)
		}
	case OpMeshFetch, OpMeshPut, OpMeshGossip, OpMeshRebalance:
		mb, ok := b.(MeshBackend)
		if !ok {
			return fail(fmt.Errorf("backend is not part of a mesh"))
		}
		if s.MeshSecret != "" && !authed {
			return fail(errors.New(meshAuthMsg))
		}
		if req.Mesh == nil {
			return fail(fmt.Errorf("mesh request without payload"))
		}
		switch req.Op {
		case OpMeshFetch:
			info, blob, err := mb.MeshFetch(req.Mesh)
			if err != nil {
				return fail(err)
			}
			resp.Mesh = info
			resp.Blob = blob
		case OpMeshPut:
			if err := mb.MeshPut(req.Mesh); err != nil {
				return fail(err)
			}
		case OpMeshGossip:
			info, err := mb.MeshGossip(req.Mesh)
			if err != nil {
				return fail(err)
			}
			resp.Mesh = info
		case OpMeshRebalance:
			info, err := mb.MeshRebalance(req.Mesh)
			if err != nil {
				return fail(err)
			}
			resp.Mesh = info
		}
	default:
		return fail(fmt.Errorf("unknown operation %q", req.Op))
	}
	return resp
}
