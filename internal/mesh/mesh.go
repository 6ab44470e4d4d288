package mesh

// Node federates one daemon into the mesh: it owns the consistent-hash
// ring, one ipc.Client per peer (so each peer gets its own circuit
// breaker), an inbound admission gate per peer plus one every other
// sender shares, and the bounded hold area for records pushed by other daemons.  It is both sides of the
// traffic: the server.MeshHook the local server consults on placement
// misses (FetchContent/OfferContent/Owned), and the Accept* handlers
// the daemon backend dispatches inbound mesh operations to.
//
// Consistency model: records are content-addressed (the content key
// pins the bytes), so every transfer is an idempotent copy.  Fetches
// fall back to the local build path on any failure, gossip retries
// whatever a round missed, and a rebalance interrupted mid-push leaves
// both shards serving correct content — the next round resumes.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omos/internal/fault"
	"omos/internal/ipc"
	"omos/internal/server"
	"omos/internal/store"
)

// Config tunes a mesh node.  Zero values select defaults.
type Config struct {
	// Self is this daemon's mesh address: its ring member ID and the
	// address peers dial it at.  Required.
	Self string
	// Secret is the shared mesh secret; when set, outbound connections
	// carry the HMAC hello proof and peers must be configured with the
	// same secret.
	Secret string
	// PeerMaxInflight/PeerQueueDepth size each inbound admission gate
	// (defaults 8/16): one per ring member, and one every other sender
	// shares — one slow or greedy peer sheds at its own gate instead of
	// starving the rest.
	PeerMaxInflight int
	PeerQueueDepth  int
	// GossipInterval enables the background anti-entropy loop; zero
	// means gossip only runs on explicit GossipTick calls.
	GossipInterval time.Duration
	// HoldMaxBytes bounds the total encoded size of the peer-pushed
	// records the node holds (default 64 MB), beside the holdMax count;
	// oldest are evicted first.  Records carry full image segments, so
	// a count bound alone could pin hundreds of MB.
	HoldMaxBytes int
	// Faults arms deterministic fault injection on the mesh sites.
	Faults *fault.Set
}

// holdMax bounds how many peer-pushed records a node holds, and how
// many capacity-evicted keys it remembers declining.
const holdMax = 256

// connectTimeout and callTimeout bound every outbound peer call, with
// no retries: a miss must fail fast into the local build path, not
// hang a build slot.
const (
	connectTimeout = 2 * time.Second
	callTimeout    = 30 * time.Second
)

func (c *Config) defaults() {
	if c.PeerMaxInflight <= 0 {
		c.PeerMaxInflight = 8
	}
	if c.PeerQueueDepth <= 0 {
		c.PeerQueueDepth = 16
	}
	if c.HoldMaxBytes <= 0 {
		c.HoldMaxBytes = 64 << 20
	}
}

// peer is one remote ring member: its address, the mesh secret its
// client proves, its own inbound admission gate, a lazily dialed
// client (whose circuit breaker is therefore per-peer), and the last
// observed liveness.
type peer struct {
	addr   string
	secret string
	gate   *server.Admission

	mu sync.Mutex
	c  *ipc.Client

	up atomic.Bool
}

// client returns the peer's client, dialing on first use and redialing
// transparently after failures (the ipc client redials itself).
func (p *peer) client() (*ipc.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		return p.c, nil
	}
	c, err := ipc.DialWith(p.addr, ipc.Options{
		ConnectTimeout: connectTimeout,
		CallTimeout:    callTimeout,
		MeshSecret:     p.secret,
	})
	if err != nil {
		return nil, err
	}
	p.c = c
	return c, nil
}

// call runs one outbound mesh operation: dial on first use, bound the
// exchange by callTimeout, and record the peer's liveness from the
// outcome.  A fetch also returns the streamed blob; on success the
// reply's MeshInfo is never nil.
func (p *peer) call(op ipc.Op, mreq *ipc.MeshReq) (*ipc.MeshInfo, []byte, error) {
	var info *ipc.MeshInfo
	var blob []byte
	c, err := p.client()
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		if op == ipc.OpMeshFetch {
			info, blob, err = c.MeshFetch(ctx, mreq)
		} else {
			var resp *ipc.Response
			if resp, err = c.CallCtx(ctx, &ipc.Request{Op: op, Mesh: mreq}); err == nil {
				info = resp.Mesh
			}
		}
	}
	p.up.Store(err == nil)
	if err != nil {
		return nil, nil, err
	}
	if info == nil {
		info = &ipc.MeshInfo{}
	}
	return info, blob, nil
}

func (p *peer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		p.c.Close()
		p.c = nil
	}
}

// Node is one daemon's membership in the mesh.  Create with New (which
// installs it as the server's mesh hook), add peers, then serve.
type Node struct {
	srv    *server.Server
	cfg    Config
	faults *fault.Set

	mu    sync.Mutex
	ring  *Ring
	peers map[string]*peer
	// others is the admission gate every sender that is not a ring
	// member shares, so wire-supplied names cannot grow the gates.
	others    *server.Admission
	holds     map[string][]byte
	holdSeq   []string
	holdBytes int
	// evicted remembers keys recently pushed out of the hold area for
	// capacity, so AcceptGossip declines their re-offer instead of the
	// mesh churning the same blobs over the wire every round.
	evicted map[string]time.Time
	// memberEpoch/memberFrom version the applied ring membership: a
	// rebalance announce carries a monotonic epoch, stale or
	// conflicting announces are detected instead of silently replacing
	// the ring (see AcceptRebalance / AnnounceMembership).
	memberEpoch uint64
	memberFrom  string
	// rebalRunning/rebalPending coalesce async rebalance kicks: at
	// most one push loop runs, at most one more is queued.
	rebalRunning bool
	rebalPending bool

	served       atomic.Uint64 // inbound fetches served (found)
	gossipRounds atomic.Uint64
	gossipPushed atomic.Uint64
	rebalPushed  atomic.Uint64

	loopWG   sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a node owning only its own shard and installs it as srv's
// mesh hook.  Add peers (AddPeer) before traffic needs them; Start
// launches the gossip loop when Config.GossipInterval is set.
func New(srv *server.Server, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("mesh: config needs a Self address")
	}
	cfg.defaults()
	n := &Node{
		srv:     srv,
		cfg:     cfg,
		faults:  cfg.Faults,
		ring:    NewRing(defaultReplicas),
		peers:   map[string]*peer{},
		holds:   map[string][]byte{},
		evicted: map[string]time.Time{},
		stop:    make(chan struct{}),
	}
	n.others = n.newGate()
	n.ring.Add(cfg.Self)
	srv.SetMesh(n)
	return n, nil
}

// newGate builds one inbound admission gate.
func (n *Node) newGate() *server.Admission {
	return server.NewAdmission(server.AdmissionConfig{
		MaxInflight: n.cfg.PeerMaxInflight,
		QueueDepth:  n.cfg.PeerQueueDepth,
	})
}

// newPeer builds the peer state of a ring member joining.
func (n *Node) newPeer(addr string) *peer {
	return &peer{addr: addr, secret: n.cfg.Secret, gate: n.newGate()}
}

// AddPeer adds a member to the ring (idempotent).  Ownership of every
// content key hashing to the new member moves immediately; run
// Rebalance (or AnnounceMembership) to push moved content over.
func (n *Node) AddPeer(addr string) {
	if addr == "" || addr == n.cfg.Self {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ring.Add(addr)
	if _, ok := n.peers[addr]; !ok {
		n.peers[addr] = n.newPeer(addr)
	}
}

// RemovePeer drops a member from the ring and closes its client.
func (n *Node) RemovePeer(addr string) {
	if addr == n.cfg.Self {
		return
	}
	n.mu.Lock()
	n.ring.Remove(addr)
	p := n.peers[addr]
	delete(n.peers, addr)
	n.mu.Unlock()
	if p != nil {
		p.close()
	}
}

// setMembersLocked replaces the ring membership wholesale (self is
// always a member, listed or not).  The caller holds n.mu; it returns
// the peers to close once the lock is released.
func (n *Node) setMembersLocked(members []string) []*peer {
	want := map[string]bool{n.cfg.Self: true}
	for _, m := range members {
		if m != "" {
			want[m] = true
		}
	}
	var closing []*peer
	for _, m := range n.ring.Members() {
		if !want[m] {
			n.ring.Remove(m)
			if p := n.peers[m]; p != nil {
				closing = append(closing, p)
			}
			delete(n.peers, m)
		}
	}
	for m := range want {
		if n.ring.Has(m) {
			continue
		}
		n.ring.Add(m)
		if m != n.cfg.Self {
			n.peers[m] = n.newPeer(m)
		}
	}
	return closing
}

// Members returns the current ring membership, sorted.
func (n *Node) Members() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Members()
}

// ownerPeer resolves a content key to its owning peer (nil when this
// node owns it or the owner is not a known peer).
func (n *Node) ownerPeer(ckey string) (string, *peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	owner := n.ring.Owner(ckey)
	return owner, n.peers[owner]
}

// peerList snapshots the peers for iteration outside the lock.
func (n *Node) peerList() []*peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Owned implements server.MeshHook.
func (n *Node) Owned(ckey string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owner(ckey) == n.cfg.Self
}

// FetchContent implements server.MeshHook: ask the content key's ring
// owner for its encoded record.  Every failure mode — owner down,
// shedding (the per-peer breaker fails fast while open), faulted, the
// key unknown — surfaces as an error the server answers with its local
// build path.
func (n *Node) FetchContent(ckey string) ([]byte, error) {
	if err := n.faults.Fire(fault.SiteMeshPeerFetch); err != nil {
		return nil, err
	}
	owner, p := n.ownerPeer(ckey)
	if p == nil {
		return nil, fmt.Errorf("mesh: owner %s of %s is not a known peer", owner, ckey)
	}
	info, blob, err := p.call(ipc.OpMeshFetch, &ipc.MeshReq{From: n.cfg.Self, CKey: ckey})
	if err == nil && !info.Found {
		err = fmt.Errorf("mesh: owner %s does not hold %s", owner, ckey)
	}
	return blob, err
}

// OfferContent implements server.MeshHook: push a locally built record
// to its ring owner.  Best-effort — on failure the record stays in the
// local variants index and the next gossip round's digest re-offers it.
func (n *Node) OfferContent(ckey string, blob []byte) {
	_, p := n.ownerPeer(ckey)
	if p == nil {
		return
	}
	n.pushRecord(p, ckey, blob)
}

// pushRecord delivers one encoded record to a peer via OpMeshPut.
func (n *Node) pushRecord(p *peer, ckey string, blob []byte) bool {
	_, _, err := p.call(ipc.OpMeshPut, &ipc.MeshReq{From: n.cfg.Self, CKey: ckey, Blob: blob})
	return err == nil
}

// gate returns the inbound admission gate of a sender: a ring member's
// own, or the one every other sender shares.
func (n *Node) gate(from string) *server.Admission {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[from]; p != nil {
		return p.gate
	}
	return n.others
}

// admitPeer passes one inbound mesh operation through the sender's
// admission gate; the returned *refusal.OverloadError (when shed)
// crosses the wire as itself, hint included, and trips the
// requester's per-peer breaker.
func (n *Node) admitPeer(from string) (func(), error) {
	return n.gate(from).Acquire(context.Background())
}

// holdEvictTTL is how long a capacity-evicted key stays declined in
// gossip replies: long enough that successive anti-entropy rounds stop
// re-streaming blobs the hold area cannot keep, short enough that the
// key becomes acceptable again once pressure has likely passed.
const holdEvictTTL = time.Minute

// hold parks a peer-pushed record, bounded by holdMax records and
// HoldMaxBytes total encoded size (oldest out first).  Held records
// never enter the server's persistent store — their placements belong
// to another daemon's solver — but they are served to fetching peers
// and moved on by rebalance.  Keys evicted for capacity are remembered
// so gossip stops re-requesting them (see AcceptGossip).
func (n *Node) hold(ckey string, blob []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(blob) > n.cfg.HoldMaxBytes {
		// Larger than the whole budget: never fits, decline re-offers.
		n.declineLocked(ckey)
		return
	}
	if old, ok := n.holds[ckey]; ok {
		n.holdBytes -= len(old)
	} else {
		n.holdSeq = append(n.holdSeq, ckey)
	}
	n.holds[ckey] = blob
	n.holdBytes += len(blob)
	// An explicit push overrides a standing decline.
	delete(n.evicted, ckey)
	for len(n.holdSeq) > holdMax || n.holdBytes > n.cfg.HoldMaxBytes {
		old := n.holdSeq[0]
		n.holdSeq = n.holdSeq[1:]
		n.holdBytes -= len(n.holds[old])
		delete(n.holds, old)
		n.declineLocked(old)
	}
}

// declineLocked remembers a key the hold area could not keep.  The
// memory holds at most holdMax keys: past that an arbitrary one is
// forgotten, which costs at most one re-offer of its blob.
func (n *Node) declineLocked(ckey string) {
	if _, ok := n.evicted[ckey]; !ok && len(n.evicted) >= holdMax {
		for k := range n.evicted {
			delete(n.evicted, k)
			break
		}
	}
	n.evicted[ckey] = time.Now()
}

func (n *Node) heldBlob(ckey string) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.holds[ckey]
}

func (n *Node) dropHold(ckey string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	blob, ok := n.holds[ckey]
	if !ok {
		return
	}
	n.holdBytes -= len(blob)
	delete(n.holds, ckey)
	for i, k := range n.holdSeq {
		if k == ckey {
			n.holdSeq = append(n.holdSeq[:i], n.holdSeq[i+1:]...)
			break
		}
	}
}

// HeldKeys lists the content keys parked in the hold area, oldest
// first.
func (n *Node) HeldKeys() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.holdSeq...)
}

// AcceptFetch serves an inbound OpMeshFetch: the encoded record, from
// the live variants index first, the hold area second.  Never
// instantiates anything, so peer fetches cannot recurse across the
// mesh.
func (n *Node) AcceptFetch(req *ipc.MeshReq) (*ipc.MeshInfo, []byte, error) {
	release, err := n.admitPeer(req.From)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	// Fired inside the admission slot: a delay fault models a slow
	// owner, whose backed-up slot sheds the peer's next fetches — the
	// overload that trips the requester's per-peer breaker.
	if err := n.faults.Fire(fault.SiteMeshPeerFetch); err != nil {
		return nil, nil, err
	}
	blob := n.exportOrHold(req.CKey)
	if blob == nil {
		return &ipc.MeshInfo{}, nil, nil
	}
	n.served.Add(1)
	return &ipc.MeshInfo{Found: true, Size: uint64(len(blob))}, blob, nil
}

// AcceptPut takes a record pushed by a peer (an offer, a gossip push,
// or a rebalance move) into the hold area.  Records this daemon
// already has a live variant of are dropped — the variants index
// serves fetches before holds do.
func (n *Node) AcceptPut(req *ipc.MeshReq) error {
	release, err := n.admitPeer(req.From)
	if err != nil {
		return err
	}
	defer release()
	rec, err := store.Decode(req.Blob)
	if err != nil {
		return fmt.Errorf("mesh: put of %s: %w", req.CKey, err)
	}
	if rec.ContentKey == "" || (req.CKey != "" && rec.ContentKey != req.CKey) {
		return fmt.Errorf("mesh: put content key mismatch: labeled %s, record %s", req.CKey, rec.ContentKey)
	}
	if n.srv.HasVariant(rec.ContentKey) {
		return nil
	}
	n.hold(rec.ContentKey, req.Blob)
	return nil
}

// AcceptGossip answers a peer's anti-entropy digest with the offered
// content keys it wants pushed.  Keys the hold area evicted for
// capacity recently are declined — re-requesting them every round
// would churn the same blobs over the wire forever.
func (n *Node) AcceptGossip(req *ipc.MeshReq) (*ipc.MeshInfo, error) {
	release, err := n.admitPeer(req.From)
	if err != nil {
		return nil, err
	}
	defer release()
	var missing []string
	n.mu.Lock()
	now := time.Now()
	for k, at := range n.evicted {
		if now.Sub(at) > holdEvictTTL {
			delete(n.evicted, k)
		}
	}
	for _, k := range req.Keys {
		_, held := n.holds[k]
		_, declined := n.evicted[k]
		if !held && !declined {
			missing = append(missing, k)
		}
	}
	n.mu.Unlock()
	info := &ipc.MeshInfo{}
	for _, k := range missing {
		if !n.srv.HasVariant(k) {
			info.Want = append(info.Want, k)
		}
	}
	return info, nil
}

// sameMembers reports whether two membership lists name the same set.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// applyAnnounce applies an epoch-versioned membership announcement
// under one lock.  Newer epochs replace the ring wholesale (that is
// what lets a leave propagate); a stale epoch is rejected untouched;
// an equal epoch from a different announcer is a concurrent announce —
// identical lists are idempotent, divergent lists are merged (union)
// so no live member is silently dropped, and applied=false tells the
// announcer to pick the union up and re-announce it.  Epochs start at
// 1: AcceptRebalance refuses epoch 0 before it gets here.
func (n *Node) applyAnnounce(members []string, epoch uint64, from string) (applied, changed bool) {
	n.mu.Lock()
	cur := n.ring.Members()
	apply := members
	switch {
	case epoch > n.memberEpoch:
		applied = true
	case epoch < n.memberEpoch:
		// Stale: an older announce lost the race; the reply carries
		// the authoritative membership.
	case from == n.memberFrom || sameMembers(cur, members):
		// The same announcer retrying, or a concurrent announce of the
		// identical list: idempotent.
		applied = true
		apply = nil
	default:
		// Concurrent conflicting announce at the same epoch: keep
		// every member from both lists and make the announcer converge
		// the fleet on the union.
		seen := map[string]bool{}
		apply = apply[:0:0]
		for _, m := range append(append([]string(nil), cur...), members...) {
			if m != "" && !seen[m] {
				seen[m] = true
				apply = append(apply, m)
			}
		}
	}
	var closing []*peer
	if applied || epoch == n.memberEpoch {
		if applied {
			n.memberEpoch = epoch
			n.memberFrom = from
		}
		if apply != nil {
			closing = n.setMembersLocked(apply)
			changed = !sameMembers(cur, n.ring.Members())
		}
	}
	n.mu.Unlock()
	for _, p := range closing {
		p.close()
	}
	return applied, changed
}

// AcceptRebalance handles an announced membership: it passes the
// sender's admission gate like every other inbound mesh operation,
// applies the announce if its epoch wins (self always stays a member),
// and replies immediately with this node's resulting epoch and
// membership — the shard push runs asynchronously (kickRebalance), so
// a large store cannot time out the announcer's call or be spammed
// into synchronous amplification; gossip converges anything an
// interrupted push leaves behind.
func (n *Node) AcceptRebalance(req *ipc.MeshReq) (*ipc.MeshInfo, error) {
	release, err := n.admitPeer(req.From)
	if err != nil {
		return nil, err
	}
	defer release()
	if req.Gen == 0 {
		return nil, fmt.Errorf("mesh: announce from %s carries no epoch", req.From)
	}
	applied, changed := n.applyAnnounce(req.Keys, req.Gen, req.From)
	if changed {
		n.kickRebalance()
	}
	n.mu.Lock()
	epoch := n.memberEpoch
	members := n.ring.Members()
	n.mu.Unlock()
	return &ipc.MeshInfo{Found: applied, Gen: epoch, Want: members}, nil
}

// kickRebalance runs Rebalance in the background, coalescing kicks: at
// most one push loop at a time, at most one more queued behind it.
func (n *Node) kickRebalance() {
	select {
	case <-n.stop:
		return // shutting down: nothing to converge any more
	default:
	}
	n.mu.Lock()
	if n.rebalRunning {
		n.rebalPending = true
		n.mu.Unlock()
		return
	}
	n.rebalRunning = true
	n.mu.Unlock()
	n.loopWG.Add(1)
	go func() {
		defer n.loopWG.Done()
		for {
			n.Rebalance()
			n.mu.Lock()
			if !n.rebalPending {
				n.rebalRunning = false
				n.mu.Unlock()
				return
			}
			n.rebalPending = false
			n.mu.Unlock()
		}
	}()
}

// exportOrHold fetches the push payload for a content key: the encoded
// live variant when one exists, the held record otherwise.
func (n *Node) exportOrHold(ckey string) []byte {
	if blob, ok := n.srv.ExportContent(ckey); ok {
		return blob
	}
	return n.heldBlob(ckey)
}

// Rebalance pushes every exportable record whose ring owner is another
// daemon to that owner — the shard move of a join or leave.  Pushes
// are idempotent copies of content-addressed records, so a crash at
// any point leaves every shard consistent; rerunning resumes.  Held
// records are dropped once delivered (their new owner serves them);
// live variants stay, they are this daemon's cache.
func (n *Node) Rebalance() (moved int, err error) {
	defer func() {
		if r := recover(); r != nil {
			moved, err = 0, fmt.Errorf("mesh: rebalance: recovered: %v", r)
		}
	}()
	if err := n.faults.Fire(fault.SiteMeshRebalance); err != nil {
		return 0, err
	}
	keys := n.srv.ContentKeys()
	keys = append(keys, n.HeldKeys()...)
	seen := map[string]bool{}
	for _, ckey := range keys {
		select {
		case <-n.stop:
			// Close was called: abandon the push loop promptly; the
			// content stays put and gossip or a rerun resumes the move.
			return moved, nil
		default:
		}
		if seen[ckey] {
			continue
		}
		seen[ckey] = true
		owner, p := n.ownerPeer(ckey)
		if owner == n.cfg.Self || p == nil {
			continue
		}
		blob := n.exportOrHold(ckey)
		if blob == nil {
			continue
		}
		// A faulted push skips just this key; the content stays put and
		// the next rebalance or gossip round moves it.
		if ferr := n.faults.Fire(fault.SiteMeshRebalance); ferr != nil {
			continue
		}
		if n.pushRecord(p, ckey, blob) {
			moved++
			n.rebalPushed.Add(1)
			n.dropHold(ckey)
		}
	}
	return moved, nil
}

// AnnounceMembership broadcasts the current ring membership to every
// peer under a fresh membership epoch (each applies it and kicks an
// asynchronous shard push), then rebalances locally.  Call after
// AddPeer/RemovePeer to effect a join or leave.  A reply reporting a
// stale or conflicting announce carries the peer's authoritative
// membership: the announcer folds it in (union — concurrent joins keep
// every live member) and re-announces under a higher epoch, so two
// racing announces converge instead of whichever arrived last silently
// winning.
func (n *Node) AnnounceMembership() error {
	var firstErr error
	for attempt := 0; attempt < 3; attempt++ {
		n.mu.Lock()
		n.memberEpoch++
		n.memberFrom = n.cfg.Self
		epoch := n.memberEpoch
		members := n.ring.Members()
		n.mu.Unlock()
		divergent := map[string]bool{}
		for _, m := range members {
			divergent[m] = true
		}
		var divergentEpoch uint64
		diverged := false
		for _, p := range n.peerList() {
			info, _, err := p.call(ipc.OpMeshRebalance, &ipc.MeshReq{From: n.cfg.Self, Keys: members, Gen: epoch})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if !info.Found {
				diverged = true
				if info.Gen > divergentEpoch {
					divergentEpoch = info.Gen
				}
				for _, m := range info.Want {
					if m != "" {
						divergent[m] = true
					}
				}
			}
		}
		if !diverged {
			break
		}
		// Some peer holds a newer or conflicting membership: adopt the
		// union and announce it again under an epoch past everything
		// seen.  The union only grows, so this reaches a fixed point;
		// if three rounds are not enough, gossip and the competing
		// announcer finish the convergence.
		union := make([]string, 0, len(divergent))
		for m := range divergent {
			union = append(union, m)
		}
		sort.Strings(union)
		n.mu.Lock()
		if divergentEpoch > n.memberEpoch {
			n.memberEpoch = divergentEpoch
		}
		closing := n.setMembersLocked(union)
		n.mu.Unlock()
		for _, p := range closing {
			p.close()
		}
	}
	if _, err := n.Rebalance(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// GossipTick runs one anti-entropy round: for each peer, offer the
// digest of content keys this daemon can export that the peer owns,
// and push whatever the peer reports missing.  Failures skip the peer;
// the next round re-offers the same digests (gossip is convergence,
// not correctness).
func (n *Node) GossipTick() (pushed int, err error) {
	defer func() {
		if r := recover(); r != nil {
			pushed, err = 0, fmt.Errorf("mesh: gossip: recovered: %v", r)
		}
	}()
	if err := n.faults.Fire(fault.SiteMeshGossip); err != nil {
		return 0, err
	}
	n.gossipRounds.Add(1)
	keys := append(n.srv.ContentKeys(), n.HeldKeys()...)
	var firstErr error
	for _, p := range n.peerList() {
		var digest []string
		for _, k := range keys {
			if owner, _ := n.ownerPeer(k); owner == p.addr {
				digest = append(digest, k)
			}
		}
		info, _, cerr := p.call(ipc.OpMeshGossip, &ipc.MeshReq{From: n.cfg.Self, Keys: digest})
		if cerr != nil {
			if firstErr == nil {
				firstErr = cerr
			}
			continue
		}
		for _, want := range info.Want {
			blob := n.exportOrHold(want)
			if blob == nil {
				continue
			}
			if n.pushRecord(p, want, blob) {
				pushed++
				n.gossipPushed.Add(1)
			}
		}
	}
	return pushed, firstErr
}

// Start launches the background gossip loop (no-op without a
// configured GossipInterval).
func (n *Node) Start() {
	if n.cfg.GossipInterval <= 0 {
		return
	}
	n.loopWG.Add(1)
	go func() {
		defer n.loopWG.Done()
		t := time.NewTicker(n.cfg.GossipInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.GossipTick()
			}
		}
	}()
}

// Close stops the gossip loop and closes every peer client.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.loopWG.Wait()
	for _, p := range n.peerList() {
		p.close()
	}
}

// peerFetcher adapts a mesh peer's client to server.RemoteFetcher so
// namespace federation (§10) rides the mesh's authenticated
// connections.
type peerFetcher struct{ c *ipc.Client }

func (f peerFetcher) FetchMeta(path string) (string, bool, error) {
	resp, err := f.c.Call(&ipc.Request{Op: ipc.OpGetMeta, Path: path})
	if err != nil {
		return "", false, err
	}
	return resp.Text, resp.Flag, nil
}

func (f peerFetcher) FetchObject(path string) ([]byte, error) {
	resp, err := f.c.Call(&ipc.Request{Op: ipc.OpGetObject, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// MountPeer mounts a mesh peer's namespace under prefix: lookups below
// it that miss locally are fetched from the peer over its mesh
// connection.  The peer must already be a ring member (AddPeer).
func (n *Node) MountPeer(prefix, addr string) error {
	n.mu.Lock()
	p := n.peers[addr]
	n.mu.Unlock()
	if p == nil {
		return fmt.Errorf("mesh: %s is not a known peer", addr)
	}
	c, err := p.client()
	if err != nil {
		return err
	}
	return n.srv.Mount(prefix, peerFetcher{c: c})
}

// PeersUp counts peers whose last contact succeeded.
func (n *Node) PeersUp() (up, total int) {
	peers := n.peerList()
	for _, p := range peers {
		if p.up.Load() {
			up++
		}
	}
	return up, len(peers)
}

// Health fills the mesh state of a health report.
func (n *Node) Health(hi *ipc.HealthInfo) {
	hi.MeshPeersUp, hi.MeshPeers = n.PeersUp()
	hi.MeshShards = len(n.Members())
}

// StatsLine renders the mesh line of `omos stats`: the node's state and
// its own counters.  The placement-miss counters of the server's mesh
// hook are server.Stats' `mesh-hook:` line.
func (n *Node) StatsLine() string {
	up, total := n.PeersUp()
	return fmt.Sprintf("mesh: self=%s shards=%d peers-up=%d/%d served=%d gossip-rounds=%d pushed=%d",
		n.cfg.Self, len(n.Members()), up, total,
		n.served.Load(), n.gossipRounds.Load(), n.gossipPushed.Load()+n.rebalPushed.Load())
}
