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
	"omos/internal/refusal"
)

// RunOutcome reports a program execution performed by the daemon.
type RunOutcome struct {
	ExitCode                uint64
	Output                  string
	User, Sys, Server, Wait uint64
}

// Backend is the set of daemon operations the protocol exposes; the
// omosd command implements it over an omos.System.  Every operation is
// required: the transport serves each op by calling its method, never
// by probing for a capability.
type Backend interface {
	PutObjectBytes(path string, rof []byte) error
	AssembleTo(path, src string) error
	CompileTo(dir, unit, src string) ([]string, error)
	List(prefix string) []string
	Run(name string, args []string, bootstrap bool) (RunOutcome, error)
	Disasm(path string) (string, error)
	// Stats renders every counter the backend keeps, one
	// "group: name=value …" line per group (OpStats; the transport
	// appends its own line).
	Stats() string
	// ExportMeta and ExportObject serve namespace federation (another
	// OMOS server mounting this one, §10).
	ExportMeta(path string) (src string, isLibrary bool, err error)
	ExportObject(path string) ([]byte, error)
	HealthBackend
	GraphBackend
	ExplainBackend
	RebindBackend
	UpgradeBackend
	MeshBackend
	BatchBackend
}

// HealthBackend reports the daemon's state and verdicts (OpHealth);
// the transport adds its draining flag.
type HealthBackend interface {
	Health() HealthInfo
}

// GraphBackend renders the server's build graph (OpGraph).
type GraphBackend interface {
	Graph() string
}

// ExplainBackend reports the binding audit trail for a symbol
// (OpExplain).
type ExplainBackend interface {
	Explain(sym string) (string, error)
}

// RebindBackend serves the namespace mutations
// (OpDefine/OpDefineLib/OpRemove) under the rebind guard: each carries
// the request's AllowRebind flag, so a mutation that would silently
// re-bind a live program's symbol is refused unless the caller made it
// explicit.
type RebindBackend interface {
	DefineAllow(path, blueprint string, allow bool) error
	DefineLibraryAllow(path, blueprint string, allow bool) error
	RemoveAllow(path string, allow bool) error
}

// UpgradeBackend drives live library upgrades
// (OpUpgrade/OpUpgradeStatus/OpRollback): epoch open, staging,
// write-ahead commit, and rollback.  The epoch itself carries the
// rebind allow, so staged definitions apply atomically at commit
// without per-call AllowRebind flags.
type UpgradeBackend interface {
	UpgradeStart(canaryPct int) (string, error)
	UpgradeStage(path, blueprint string, isLib bool) error
	UpgradeCommit() error
	UpgradeRollback(reason string) error
	// UpgradeStatus returns the engine's one-line status and whether an
	// epoch is currently open.
	UpgradeStatus() (line string, active bool)
}

// MeshBackend serves the operations of a daemon mesh (internal/mesh):
// content-key fetch/offer between shard owners, anti-entropy gossip,
// and membership rebalance; a daemon outside a mesh refuses them.
// When the server has a MeshSecret these operations additionally
// require the connection to have authenticated via the hello
// challenge-response.
type MeshBackend interface {
	MeshFetch(req *MeshReq) (*MeshInfo, []byte, error)
	MeshPut(req *MeshReq) error
	MeshGossip(req *MeshReq) (*MeshInfo, error)
	MeshRebalance(req *MeshReq) (*MeshInfo, error)
}

// meshAuthMsg is the wire form of a mesh operation refused because the
// connection never proved the shared secret.
const meshAuthMsg = "mesh peer not authenticated"

// BatchBackend instantiates a vector of meta-objects in one request
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
	// Nudge every idle reader: after the grace deadline its read
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
	var h hello
	if err := readHello(conn, &h); err != nil || h.Ack {
		// EOF, a drain-deadline expiry or damaged framing end the
		// connection unanswered.  A frame that arrived whole but is not
		// a hello of this version — an older or newer peer's, or a
		// gob-era peer's, which cannot decode the answer — gets one
		// refusal, then the close.  Nothing was dispatched.
		var fe *FrameError
		if h.Ack || errors.As(err, &fe) && fe.Reason == "malformed" {
			writeHello(conn, &hello{Version: protoVersion, Text: helloRequiredMsg})
		}
		return
	}
	// Acknowledge in the hello's own framing, then the connection
	// switches to tagged frames.  When both sides hold the mesh secret
	// the hello also runs the challenge-response that marks the
	// connection as an authenticated peer; a wrong proof still opens
	// the connection — only the mesh operations are gated.
	authed, ok := s.helloUpgrade(conn, h.Text)
	if !ok {
		return
	}
	s.serveMux(conn, authed)
}

// helloRequiredMsg refuses a connection whose first frame is not a
// hello of this protocol version.
var helloRequiredMsg = "protocol version " + protoVersionText + " required: a connection opens with a hello"

// helloUpgrade acknowledges a hello in its own framing and, when this
// server has a mesh secret and the hello carried a client nonce, runs
// the peer-auth challenge-response: the ack carries a fresh server
// nonce (its Text), the client answers with one more hello whose Proof
// is meshProof(secret, server nonce, client nonce, version), and a
// final ack closes the exchange.  The server nonce is issued here,
// never chosen by the client, so a proof captured off one connection
// never authenticates another.  ok=false means the connection must be
// dropped (transport failure, a malformed continuation, or no secure
// randomness for the challenge).
func (s *Server) helloUpgrade(conn net.Conn, clientNonce string) (authed, ok bool) {
	challenge := ""
	if s.MeshSecret != "" && clientNonce != "" {
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
	if err := writeHello(conn, &hello{Version: protoVersion, Ack: true, Text: challenge}); err != nil {
		return false, false
	}
	if challenge == "" {
		return false, true
	}
	var proof hello
	if err := readHello(conn, &proof); err != nil || proof.Ack {
		return false, false
	}
	authed = hmac.Equal(proof.Proof, meshProof(s.MeshSecret, challenge, clientNonce, protoVersionText))
	if err := writeHello(conn, &hello{Version: protoVersion, Ack: true}); err != nil {
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

// applyError records err on resp: its text in Err, and, when a typed
// refusal is anywhere in its chain, that refusal itself, which the
// client hands back to its caller.
func applyError(resp *Response, err error) {
	resp.Err = err.Error()
	var r refusal.Error
	if errors.As(err, &r) {
		resp.Refusal = r
	}
}

func (s *Server) handle(req *Request, authed bool) *Response {
	b := s.b
	resp := &Response{}
	var err error
	switch req.Op {
	case OpPing:
		resp.Text = "omos server: alive"
	case OpDefine:
		err = b.DefineAllow(req.Path, req.Text, req.AllowRebind)
	case OpDefineLib:
		err = b.DefineLibraryAllow(req.Path, req.Text, req.AllowRebind)
	case OpPutObject:
		err = b.PutObjectBytes(req.Path, req.Blob)
	case OpAssemble:
		err = b.AssembleTo(req.Path, req.Text)
	case OpCompile:
		resp.Paths, err = b.CompileTo(req.Path, req.Unit, req.Text)
	case OpList:
		resp.Paths = b.List(req.Path)
	case OpRemove:
		err = b.RemoveAllow(req.Path, req.AllowRebind)
	case OpRun, OpRunBoot:
		var out RunOutcome
		out, err = b.Run(req.Path, req.Args, req.Op == OpRunBoot)
		resp.ExitCode = out.ExitCode
		resp.Output = out.Output
		resp.User, resp.Sys, resp.Server, resp.Wait = out.User, out.Sys, out.Server, out.Wait
	case OpDisasm:
		resp.Text, err = b.Disasm(req.Path)
	case OpStats:
		resp.Text = b.Stats() + "transport: recovered=" + strconv.FormatUint(s.recovered.Load(), 10) + "\n"
	case OpGetMeta:
		resp.Text, resp.Flag, err = b.ExportMeta(req.Path)
	case OpGetObject:
		resp.Blob, err = b.ExportObject(req.Path)
	case OpHealth:
		hi := b.Health()
		hi.Draining = s.Draining()
		resp.Health = &hi
	case OpGraph:
		resp.Text = b.Graph()
	case OpExplain:
		resp.Text, err = b.Explain(req.Path)
	case OpUpgrade:
		switch req.Unit {
		case "start":
			pct := 100
			if req.Text != "" {
				if pct, err = strconv.Atoi(req.Text); err != nil {
					err = fmt.Errorf("bad canary percentage %q", req.Text)
					break
				}
			}
			resp.Text, err = b.UpgradeStart(pct)
		case "stage":
			isLib := len(req.Args) > 0 && req.Args[0] == "lib"
			err = b.UpgradeStage(req.Path, req.Text, isLib)
		case "commit":
			err = b.UpgradeCommit()
		default:
			err = fmt.Errorf("unknown upgrade phase %q", req.Unit)
		}
	case OpUpgradeStatus:
		resp.Text, resp.Flag = b.UpgradeStatus()
	case OpRollback:
		err = b.UpgradeRollback(req.Text)
	case OpMeshFetch, OpMeshPut, OpMeshGossip, OpMeshRebalance:
		switch {
		case s.MeshSecret != "" && !authed:
			err = errors.New(meshAuthMsg)
		case req.Mesh == nil:
			err = fmt.Errorf("mesh request without payload")
		case req.Op == OpMeshFetch:
			resp.Mesh, resp.Blob, err = b.MeshFetch(req.Mesh)
		case req.Op == OpMeshPut:
			err = b.MeshPut(req.Mesh)
		case req.Op == OpMeshGossip:
			resp.Mesh, err = b.MeshGossip(req.Mesh)
		default:
			resp.Mesh, err = b.MeshRebalance(req.Mesh)
		}
	default:
		err = fmt.Errorf("unknown operation %q", req.Op)
	}
	if err != nil {
		// A failed operation answers with its error alone.
		*resp = Response{}
		applyError(resp, err)
	}
	return resp
}
