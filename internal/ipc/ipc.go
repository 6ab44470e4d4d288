// Package ipc implements the wire protocol through which external
// clients talk to a running OMOS daemon (cmd/omosd), mirroring the
// paper's client/server split: the server is a persistent process that
// outlives program invocations, and clients reach it over a message
// channel.
//
// The protocol is length-prefixed frames over any net.Conn.  Operations
// cover namespace management (define, put-object, list, remove) and
// program execution inside the daemon's simulated machine.
//
// There is one protocol version.  A connection opens with a hello
// exchange in the gate's own length-prefixed frames, each carrying one
// hello whose magic and version sit at fixed offsets (codec.go) — the
// version gate, readable far enough to refuse by any version from 6
// on — and then carries tagged frames (frame.go) whose payload is one
// message in a fixed binary layout (codec.go): every frame bears a
// client-assigned request ID, so one connection carries any number of
// in-flight calls, completions return out of order, and
// OpInstantiateBatch streams per-item results.  A server answers a
// first frame that is not a hello of its version with one refusal and
// closes; a client whose hello is refused reports the refusal, it does
// not fall back.
//
// Failure model: frame-level damage (truncated, oversized, or
// malformed frames) surfaces as *FrameError and costs only the one
// connection it arrived on.  Calls carry deadlines that surface as
// context.DeadlineExceeded.  Idempotent operations retry with bounded
// exponential backoff and transparent reconnect; a draining server
// answers with ErrDraining rather than a reset.
package ipc

import (
	"context"
	"crypto/hmac"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/refusal"
)

// Op identifies a request operation.
type Op string

// Protocol operations.
const (
	OpPing      Op = "ping"
	OpDefine    Op = "define"     // Path, Text (blueprint)
	OpDefineLib Op = "define-lib" // Path, Text (blueprint)
	OpPutObject Op = "put-object" // Path, Blob (encoded ROF)
	OpAssemble  Op = "assemble"   // Path, Text (assembly source)
	OpCompile   Op = "compile"    // Path (dir), Unit, Text (mini-C)
	OpList      Op = "list"       // Path (prefix)
	OpRemove    Op = "remove"     // Path
	OpRun       Op = "run"        // Path, Args; integrated exec
	OpRunBoot   Op = "run-boot"   // Path, Args; bootstrap exec
	OpDisasm    Op = "disasm"     // Path (object); returns listing
	OpStats     Op = "stats"      // every counter: server, memory, transport
	OpGetMeta   Op = "get-meta"   // Path; returns blueprint source + library flag
	OpGetObject Op = "get-object" // Path; returns encoded ROF bytes
	OpHealth    Op = "health"     // liveness, state and verdicts
	OpGraph     Op = "graph"      // build-graph report (runs, nodes, checkpoints)
	OpExplain   Op = "explain"    // Path (symbol name); binding audit trail
	// OpUpgrade drives a live-upgrade epoch; Unit selects the phase:
	// "start" (Text: canary percentage, returns the epoch id in Text),
	// "stage" (Path + Text blueprint, Args[0] "lib"/"prog"), or
	// "commit".  OpRollback aborts the epoch (Text: reason);
	// OpUpgradeStatus reports the engine state (Text: status line,
	// Flag: epoch active).
	OpUpgrade       Op = "upgrade"
	OpUpgradeStatus Op = "upgrade-status"
	OpRollback      Op = "rollback"
	// OpInstantiateBatch instantiates a vector of meta-objects (Args)
	// in one request: the server fans the items into its build
	// executor and streams each completion back as its own tagged
	// response (Index set) before a Final summary.
	OpInstantiateBatch Op = "instantiate-batch"
	// Mesh operations federate daemons into a consistent-hash sharded
	// image store (internal/mesh).  All carry Request.Mesh and answer
	// with Response.Mesh; when the serving daemon has a mesh secret
	// configured they require the connection to have authenticated via
	// the HMAC proof of the hello.  OpMeshFetch asks a content key's ring
	// owner for its image, the encoded record blob streamed in chunks.
	// OpMeshPut hands the owner a
	// record built elsewhere; OpMeshGossip exchanges anti-entropy
	// digests; OpMeshRebalance announces ring membership for
	// join/leave.  All four are idempotent (content-addressed records
	// make replay harmless).
	OpMeshFetch     Op = "mesh-fetch"
	OpMeshPut       Op = "mesh-put"
	OpMeshGossip    Op = "mesh-gossip"
	OpMeshRebalance Op = "mesh-rebalance"
)

// protoVersion is the protocol this package speaks, carried at offset
// 4 of every hello.  The layouts of the hello and of the tagged
// messages (codec.go) are part of it: changing either means a new
// version.
const protoVersion = 7

// protoVersionText is protoVersion as refusals and the mesh proof spell
// it.
var protoVersionText = strconv.Itoa(protoVersion)

// errHelloRefused marks a hello the server answered with anything but
// an acknowledgement of this version.  The peer speaks another
// protocol; redialing cannot change that, so it is never retried.
var errHelloRefused = errors.New("ipc: server refused the protocol " + protoVersionText + " hello")

// meshProof computes the shared-secret proof of the mesh handshake:
// HMAC-SHA256(secret, server nonce || "|" || client nonce || "|" ||
// version).  The server nonce is a fresh challenge the server issues
// in its hello ack, so a captured proof is useless on any other
// connection (true challenge-response, not a client-chosen nonce);
// the client nonce binds the proof to the hello that asked for the
// challenge, and the version keeps a proof from authenticating a
// downgraded session.  Nonces are fixed-width hex, so the "|"
// separators make the MAC input injective.
func meshProof(secret, serverNonce, clientNonce, version string) []byte {
	mac := hmac.New(sha256.New, []byte(secret))
	io.WriteString(mac, serverNonce)
	io.WriteString(mac, "|")
	io.WriteString(mac, clientNonce)
	io.WriteString(mac, "|")
	io.WriteString(mac, version)
	return mac.Sum(nil)
}

// meshNonce returns a fresh random handshake nonce (hex).  A failing
// crypto/rand is a broken platform: the handshake errors out rather
// than degrading to a guessable nonce.
func meshNonce() (string, error) {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("ipc: mesh nonce: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// idempotent reports whether an operation can be retried safely: the
// result of doing it twice is the result of doing it once.  Namespace
// writes qualify (same content, same outcome); Run does not (the
// program may have side effects in the daemon's namespace).
func idempotent(op Op) bool {
	switch op {
	case OpRun, OpRunBoot:
		return false
	case OpUpgrade, OpRollback:
		// Upgrade transitions are not blindly replayable: a retried
		// "start" would refuse (epoch already open) and a retried
		// commit/rollback may race the health gate.  The caller decides.
		return false
	}
	return true
}

// Request is a client message.
type Request struct {
	Op   Op
	Path string
	Unit string
	Text string
	Args []string
	Blob []byte
	// AllowRebind makes a namespace mutation (define/define-lib/remove)
	// explicit about re-binding: without it the daemon rejects any
	// mutation that would silently re-bind a live program's symbol to a
	// different definer (see refusal.RebindError).
	AllowRebind bool
	// Mesh carries the payload of the mesh operations.
	Mesh *MeshReq
}

// MeshReq is the request payload of the mesh operations.
type MeshReq struct {
	// From is the sender's advertised mesh address (its ring member
	// ID); a ring member's requests pass its own admission gate, every
	// other sender's the one they share.
	From string
	// CKey is the content key being fetched or offered.
	CKey string
	// Blob is the encoded store record of a put.
	Blob []byte
	// Gen is the announced membership epoch of a rebalance (see
	// mesh.Node).
	Gen uint64
	// Keys lists content keys: digests the sender holds for the
	// receiver (gossip), or the full ring membership (rebalance).
	Keys []string
}

// MeshInfo is the response payload of the mesh operations.
type MeshInfo struct {
	// Found reports whether the owner holds the fetched content key
	// (fetch), or whether an announced membership was applied as sent
	// (rebalance; false flags a stale or conflicting announce).
	Found bool
	// Size is the total blob length of a streamed fetch.
	Size uint64
	// Gen is the responder's membership epoch after processing an
	// announce (rebalance).
	Gen uint64
	// Want lists content keys the responder would like pushed
	// (gossip), or the responder's ring membership after processing an
	// announce (rebalance) so the announcer can detect divergence.
	Want []string
}

// HealthInfo is the payload of OpHealth: enough to tell a live,
// healthy daemon from one that is limping or going away.  It carries
// state and verdicts, not counters: those are `omos stats`.
type HealthInfo struct {
	// UptimeMS is milliseconds since the daemon's backend started.
	UptimeMS uint64
	// InflightBuilds is the number of image builds currently running.
	InflightBuilds int
	// WarmLoaded is how many store records the daemon attached at boot,
	// each served on first use without a relink.
	WarmLoaded uint64
	// Draining is true once shutdown has begun: the daemon answers
	// in-flight work but accepts nothing new.
	Draining bool
	// Degraded is the daemon supervisor's verdict; DegradedReason says
	// why (queue pressure, a stuck build, a nearly full store).
	Degraded       bool
	DegradedReason string
	// QueueDepth is how many requests are waiting at the admission
	// gate.
	QueueDepth int
	// Live-upgrade state: whether an epoch is open, which one, how wide
	// its canary is, and whether a rollback is in progress (a rollback
	// in progress makes `omos health` exit nonzero).  UpgradeVerdict
	// carries the health gate's verdict while rolling back, or the last
	// aborted epoch's verdict when idle.
	UpgradeActive      bool
	UpgradeEpoch       string
	UpgradeCanaryPct   int
	UpgradeRollingBack bool
	UpgradeVerdict     string
	// Mesh state: ring size and peer liveness.  All zero on an unmeshed
	// daemon.
	MeshPeers   int
	MeshPeersUp int
	MeshShards  int
}

// Unhealthy reports whether the daemon is draining, degraded or rolling
// an upgrade back: alive, but not a daemon to send work to.  `omos
// health` exits nonzero on it so scripts and orchestrators notice.
func (h *HealthInfo) Unhealthy() bool {
	return h.Draining || h.Degraded || h.UpgradeRollingBack
}

// Format renders the report one "name: value" line per field, the
// text `omos health` prints.  The upgrade and
// mesh lines appear only on a daemon that has something to say there.
func (h *HealthInfo) Format() string {
	var b strings.Builder
	row := func(name string, v interface{}) { fmt.Fprintf(&b, "%-16s %v\n", name+":", v) }
	row("uptime", (time.Duration(h.UptimeMS) * time.Millisecond).Round(time.Millisecond))
	row("inflight-builds", h.InflightBuilds)
	row("warm-loaded", h.WarmLoaded)
	row("queue-depth", h.QueueDepth)
	row("degraded", h.Degraded)
	if h.Degraded {
		row("degraded-reason", h.DegradedReason)
	}
	if h.UpgradeActive || h.UpgradeVerdict != "" {
		row("upgrade", fmt.Sprintf("active=%v epoch=%s canary=%d%% rolling-back=%v verdict=%q",
			h.UpgradeActive, h.UpgradeEpoch, h.UpgradeCanaryPct, h.UpgradeRollingBack, h.UpgradeVerdict))
	}
	if h.MeshShards > 0 {
		row("mesh", fmt.Sprintf("peers-up=%d/%d shards=%d", h.MeshPeersUp, h.MeshPeers, h.MeshShards))
	}
	row("draining", h.Draining)
	return b.String()
}

// Response is the server's reply.
type Response struct {
	Err      string
	Text     string
	Paths    []string
	Blob     []byte
	Flag     bool
	ExitCode uint64
	Output   string
	Health   *HealthInfo
	// Clock components (user, sys, server, wait cycles).
	User, Sys, Server, Wait uint64
	// Index and Final frame streamed completions (OpInstantiateBatch,
	// OpMeshFetch): each item or chunk answers with its Index and Final
	// false, and the stream closes with a Final summary carrying any
	// request-level error.
	Index int
	Final bool
	// Refusal, when the error in Err is one of the daemon's typed
	// refusals, is that refusal itself; the client returns it.
	Refusal refusal.Error
	// Mesh carries the payload of the mesh operations.
	Mesh *MeshInfo
}

// maxFrame bounds a single tagged message (largest realistic payload is
// a workload blueprint of a few hundred KB).
const maxFrame = 16 << 20

// maxHelloFrame bounds a hello-exchange frame (writeHello/readHello).
// The server reads the first one before any auth and with no deadline,
// so a forged length must not become an allocation.  A hello of this
// version is at most ~130 bytes (a refusal's reason, or a 32-character
// nonce and a 32-byte proof); the bound stays at the size of the
// gob-era hello exchange (frames of up to ~0.9 KB), so a frame from a
// version-5 or older peer is still read whole and refused.
const maxHelloFrame = 4 << 10

// drainingMsg is the wire form of ErrDraining (Response.Err is a
// string; the client maps it back to the sentinel).
const drainingMsg = "server draining"

// ErrDraining is returned by Client.Call when the daemon has begun
// graceful shutdown: the request was refused cleanly, not reset
// mid-exchange.  Point the client at another server or give up.
var ErrDraining = errors.New("ipc: server draining")

// FrameError reports a damaged protocol frame: truncated mid-message,
// an oversized length prefix, or a payload that does not decode.  The
// serve loop treats it as fatal to the one connection it arrived on —
// never to the accept loop.
type FrameError struct {
	Reason string // "truncated", "oversized", "malformed"
	Size   uint32 // claimed frame size, when meaningful
	Err    error  // underlying error, when any
}

func (e *FrameError) Error() string {
	msg := "ipc: " + e.Reason + " frame"
	if e.Size > 0 {
		msg += fmt.Sprintf(" (%d bytes)", e.Size)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *FrameError) Unwrap() error { return e.Err }

// Options tunes a Client's robustness behavior.  The zero value means
// no timeouts and no retries (the pre-hardening behavior, still right
// for tests that want to observe raw transport failures).
type Options struct {
	// ConnectTimeout bounds Dial and any transparent reconnect.
	ConnectTimeout time.Duration
	// CallTimeout bounds each Call exchange (write + read).  Exceeding
	// it surfaces context.DeadlineExceeded.
	CallTimeout time.Duration
	// Retries sizes each of a request's three retry budgets (see
	// Client.do): pre-send failures, transport failures of idempotent
	// operations, and overload sheds.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// attempt.  Defaults to 10ms when Retries > 0.
	Backoff time.Duration
	// MeshSecret, when set, makes the hello request a server
	// challenge and answer it with an HMAC-SHA256 proof of the shared
	// mesh secret, so the server marks the connection as an
	// authenticated peer (required for mesh operations against a
	// secretful daemon).  Affects sessions established after it is
	// set.
	MeshSecret string
}

// DefaultOptions is the tuning cmd/omos ships with: fail a dead
// server fast, ride out a transient hiccup.
var DefaultOptions = Options{
	ConnectTimeout: 5 * time.Second,
	CallTimeout:    2 * time.Minute,
	Retries:        2,
	Backoff:        25 * time.Millisecond,
}

// Client is a connection to an OMOS daemon.  It is safe for
// concurrent use.  Many calls share one connection: each is assigned
// a monotonically increasing tag, writes its frame under a brief send
// lock, and parks on a per-tag channel while a single reader goroutine
// demultiplexes completions to waiters — so one connection carries
// hundreds of in-flight calls and a slow request never blocks the fast
// ones behind it.
//
// There is deliberately no big client lock: options are read
// atomically, the breaker and the jitter rng have their own small
// mutexes, and the session pointer is guarded only around
// dial/redial/close — never across an exchange.
type Client struct {
	addr string // for transparent reconnect; "" disables

	// opts is read atomically once at the top of every call, so
	// SetOptions is safe under concurrent Calls and each call sees one
	// coherent Options value.
	opts atomic.Pointer[Options]

	// connMu guards the session pointer (dial, redial, close).
	connMu sync.Mutex
	sess   *session
	closed bool

	// Circuit breaker against a shedding server (guarded by brMu).
	// An overloaded response trips it open for max(server hint,
	// doubled prior hold) plus jitter; while open, calls fail fast
	// with a *refusal.OverloadError (Reason "breaker open") instead of
	// piling onto the overloaded server.  When the hold expires the
	// breaker is half-open: the next call through is a probe, and its
	// success closes the breaker.
	brMu        sync.Mutex
	brOpenUntil time.Time
	brHold      time.Duration

	// rng drives retry jitter (guarded by rngMu; private so
	// concurrent clients never contend on the global source).
	rngMu sync.Mutex
	rng   *rand.Rand
}

// Dial connects to a daemon with zero Options.
func Dial(addr string) (*Client, error) { return DialWith(addr, Options{}) }

// DialWith connects to a daemon with explicit robustness tuning.
// The hello exchange happens lazily on the first call, so its
// failures flow through that call's retry budget.
func DialWith(addr string, opts Options) (*Client, error) {
	conn, err := dialAddr(addr, opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, sess: newSession(conn, opts.MeshSecret)}
	c.opts.Store(&opts)
	return c, nil
}

func dialAddr(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("tcp", addr, timeout)
	}
	return net.Dial("tcp", addr)
}

// NewClient wraps an existing connection.  No reconnect is possible
// (the client does not know how the connection was made).
func NewClient(conn net.Conn) *Client {
	return &Client{sess: newSession(conn, "")}
}

// SetOptions replaces the client's robustness tuning.  Safe to call
// concurrently with Call: in-flight calls finish under the options
// they started with; later calls see the new value.  MeshSecret
// affects only sessions established afterwards.
func (c *Client) SetOptions(opts Options) { c.opts.Store(&opts) }

// options snapshots the current tuning.
func (c *Client) options() Options {
	if o := c.opts.Load(); o != nil {
		return *o
	}
	return Options{}
}

// Close closes the connection.  In-flight calls on a multiplexed
// session fail with a transport error.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = true
	if c.sess != nil {
		return c.sess.close()
	}
	return nil
}

// session returns the live session, redialing if the previous one
// died (and the client knows its address).
func (c *Client) session(opts Options) (*session, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil, errors.New("ipc: client closed")
	}
	if c.sess != nil && !c.sess.isDead() {
		return c.sess, nil
	}
	if c.sess != nil {
		c.sess.close()
		c.sess = nil
	}
	if c.addr == "" {
		return nil, errors.New("ipc: connection lost (no address to redial)")
	}
	conn, err := dialAddr(c.addr, opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c.sess = newSession(conn, opts.MeshSecret)
	return c.sess, nil
}

// Call performs one request/response exchange under the client's
// configured CallTimeout.
func (c *Client) Call(req *Request) (*Response, error) {
	return c.CallCtx(context.Background(), req)
}

// CallCtx performs one request/response exchange bounded by both ctx
// and the configured CallTimeout (whichever deadline is sooner), under
// the retry policy of do.
func (c *Client) CallCtx(ctx context.Context, req *Request) (*Response, error) {
	return c.do(ctx, req, 1, nil)
}

// defaultBackoff is the delay before the first retry when Options
// leaves Backoff unset.
const defaultBackoff = 10 * time.Millisecond

// do is the one request lifecycle, shared by a plain call, a batch
// and a mesh fetch (want and onFrame are stream's).  Each attempt gets
// (or redials) a session, completes its hello, runs the exchange and
// decodes the closing frame's error; what happens next depends only on
// the class of failure (the same table is in DESIGN.md "Wire
// protocol"):
//
//   - Breaker open: fail fast with a *refusal.OverloadError, no round trip.
//   - Deadline, cancellation: the caller's answer, never retried.  A
//     timed-out call just abandons its tag and the connection lives on.
//   - Hello refused: the peer speaks another protocol; never retried.
//   - Dial or handshake failure: the request never hit the wire, so
//     every op retries, from the pre-send budget.
//   - Transport failure mid-exchange: the session is dead and the next
//     attempt redials.  Only idempotent ops retry (the request may have
//     been acted on), from the transport budget.
//   - Overload shed: it happened before any work, so every op waits out
//     the breaker hold and retries as the half-open probe, from the
//     overload budget.  A mesh fetch has none: the mesh answers a shed
//     with a local build, so it wants the typed error at once.  The
//     breaker trips either way.
//   - Draining: a clean refusal from a server going away; never retried.
//   - Any other error in the reply is the application's answer: never
//     retried, and like a success it proves the server is answering, so
//     it closes the breaker.
//
// Each budget is Options.Retries; the two failure budgets share one
// jittered, doubling back-off.  A reply that carries an error is
// returned beside it.
func (c *Client) do(ctx context.Context, req *Request, want int, onFrame func(*Response)) (*Response, error) {
	opts := c.options()
	if rem := c.breakerRemaining(); rem > 0 {
		return nil, fmt.Errorf("omosd: %w", &refusal.OverloadError{Reason: "breaker open", RetryAfter: rem})
	}
	preSendLeft, transportLeft, overloadLeft := opts.Retries, 0, opts.Retries
	if idempotent(req.Op) {
		transportLeft = opts.Retries
	}
	if req.Op == OpMeshFetch {
		overloadLeft = 0 // the mesh builds locally rather than wait out a hold
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	for {
		resp, sent, err := c.attempt(ctx, req, opts, want, onFrame)
		if err == nil {
			if err = wireError(resp); err == nil {
				c.resetBreaker()
				return resp, nil
			}
			var shed *refusal.OverloadError
			if errors.As(err, &shed) {
				shed.RetryAfter = c.tripBreaker(shed.RetryAfter)
				if overloadLeft > 0 {
					overloadLeft--
					if err := sleepCtx(ctx, shed.RetryAfter); err != nil {
						return nil, err
					}
					continue
				}
			} else if !errors.Is(err, ErrDraining) {
				c.resetBreaker()
			}
			return resp, err
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, errHelloRefused) {
			return nil, err
		}
		switch {
		case !sent && preSendLeft > 0:
			preSendLeft--
		case sent && transportLeft > 0:
			transportLeft--
		default:
			return nil, err
		}
		if err := sleepCtx(ctx, c.jitter(backoff)); err != nil {
			return nil, err
		}
		backoff *= 2
	}
}

// attempt is one try of do: get (or redial) a session, complete the
// hello exchange if this is its first use, then run the request.  sent
// is false when the failure came before the request was transmitted
// (dial, version handshake), which makes a retry safe for every
// operation.  I/O timeouts map to context.DeadlineExceeded.
func (c *Client) attempt(ctx context.Context, req *Request, opts Options, want int, onFrame func(*Response)) (resp *Response, sent bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	s, err := c.session(opts)
	if err != nil {
		return nil, false, err
	}
	deadline := callDeadline(ctx, opts)
	if err := s.ensureHandshake(deadline); err != nil {
		return nil, false, mapTimeout(err)
	}
	resp, err = s.stream(ctx, deadline, req, want, onFrame)
	return resp, true, err
}

// wireError decodes the error of a completion — a call's reply, a
// batch item, a batch or fetch Final — into its typed error: nil for
// success, the decoded refusal when the reply carries one, ErrDraining
// for a draining server, the server's text for anything else.
func wireError(resp *Response) error {
	if r := resp.Refusal; r != nil {
		// A shed hint is a peer's input: floor it so a caller honoring
		// it never spins.
		if oe, ok := r.(*refusal.OverloadError); ok && oe.RetryAfter < minBreakerHold {
			oe.RetryAfter = minBreakerHold
		}
		return fmt.Errorf("omosd: %w", r)
	}
	switch resp.Err {
	case "":
		return nil
	case drainingMsg:
		return fmt.Errorf("omosd: %w", ErrDraining)
	}
	return fmt.Errorf("omosd: %s", resp.Err)
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jitter spreads a backoff over [d/2, 3d/2) so a herd of clients shed
// together does not retry together.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// breaker hold bounds: never retry sooner than the floor even with no
// server hint; never lock a client out longer than the cap.
const (
	minBreakerHold = 5 * time.Millisecond
	maxBreakerHold = 5 * time.Second
)

// breakerRemaining reports how long the breaker stays open (<= 0 when
// closed or half-open).
func (c *Client) breakerRemaining() time.Duration {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	return time.Until(c.brOpenUntil)
}

// BreakerOpen reports whether the client's circuit breaker is open:
// calls fail fast with *refusal.OverloadError, without a round trip, until
// the hold expires.  Mesh nodes keep one client per peer, so this is
// the per-peer breaker state.
func (c *Client) BreakerOpen() bool { return c.breakerRemaining() > 0 }

// tripBreaker opens the breaker after an overloaded response and
// returns the jittered hold (at least the server's hint; doubling
// while sheds repeat).
func (c *Client) tripBreaker(hint time.Duration) time.Duration {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	base := c.brHold * 2
	if hint > base {
		base = hint
	}
	if base < minBreakerHold {
		base = minBreakerHold
	}
	if base > maxBreakerHold {
		base = maxBreakerHold
	}
	c.brHold = base
	// Jitter only upward: retrying before the server's hint is wasted.
	hold := base + c.jitter(base/4)
	c.brOpenUntil = time.Now().Add(hold)
	return hold
}

// resetBreaker closes the breaker after any successful exchange.
func (c *Client) resetBreaker() {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	c.brHold = 0
	c.brOpenUntil = time.Time{}
}

// callDeadline resolves the sooner of the configured CallTimeout and
// the context deadline (zero when neither applies).
func callDeadline(ctx context.Context, opts Options) time.Time {
	deadline := time.Time{}
	if opts.CallTimeout > 0 {
		deadline = time.Now().Add(opts.CallTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	return deadline
}

// mapTimeout converts net timeout errors into context.DeadlineExceeded
// so callers see one canonical deadline error.
func mapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("ipc: call: %w", context.DeadlineExceeded)
	}
	return err
}
