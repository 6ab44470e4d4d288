package mesh

// Node federates one daemon into the mesh: it owns the consistent-hash
// ring, one ipc.Client per peer (so each peer gets its own circuit
// breaker), a per-peer inbound admission gate, and the bounded hold
// area for records pushed by other daemons.  It is both sides of the
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
	// PeerMaxInflight/PeerQueueDepth size the per-peer inbound
	// admission gate (defaults 8/16) — one slow or greedy peer sheds at
	// its own gate instead of starving the rest.
	PeerMaxInflight int
	PeerQueueDepth  int
	// ConnectTimeout/CallTimeout/Retries tune the per-peer clients
	// (defaults 2s / 30s / 0 — a miss must fail fast into the local
	// build path, not hang a build slot).
	ConnectTimeout time.Duration
	CallTimeout    time.Duration
	Retries        int
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

// holdMax bounds how many peer-pushed records a node holds.
const holdMax = 256

func (c *Config) defaults() {
	if c.PeerMaxInflight <= 0 {
		c.PeerMaxInflight = 8
	}
	if c.PeerQueueDepth <= 0 {
		c.PeerQueueDepth = 16
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.HoldMaxBytes <= 0 {
		c.HoldMaxBytes = 64 << 20
	}
}

// peer is one remote daemon: its address, a lazily dialed client
// (whose circuit breaker is therefore per-peer), and the last observed
// liveness.
type peer struct {
	addr string

	mu sync.Mutex
	c  *ipc.Client

	up atomic.Bool
}

// client returns the peer's client, dialing on first use and redialing
// transparently after failures (the ipc client redials itself).
func (p *peer) client(opts ipc.Options) (*ipc.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		return p.c, nil
	}
	c, err := ipc.DialWith(p.addr, opts)
	if err != nil {
		return nil, err
	}
	p.c = c
	return c, nil
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

	mu        sync.Mutex
	ring      *Ring
	peers     map[string]*peer
	admits    map[string]*server.Admission
	holds     map[string][]byte
	holdSeq   []string
	holdBytes int
	// evicted remembers keys recently pushed out of the hold area for
	// capacity, so AcceptGossip declines their re-offer instead of the
	// mesh churning the same blobs over the wire every round.
	evicted map[string]time.Time
	peerGen map[string]uint64
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
// mesh hook.  Add peers (AddPeer / SetMembers) before traffic needs
// them; Start launches the gossip loop when Config.GossipInterval is
// set.
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
		admits:  map[string]*server.Admission{},
		holds:   map[string][]byte{},
		evicted: map[string]time.Time{},
		peerGen: map[string]uint64{},
		stop:    make(chan struct{}),
	}
	n.ring.Add(cfg.Self)
	srv.SetMesh(n)
	return n, nil
}

// Self returns this node's mesh address.
func (n *Node) Self() string { return n.cfg.Self }

// clientOpts is the tuning every per-peer client gets.
func (n *Node) clientOpts() ipc.Options {
	return ipc.Options{
		ConnectTimeout: n.cfg.ConnectTimeout,
		CallTimeout:    n.cfg.CallTimeout,
		Retries:        n.cfg.Retries,
		MeshSecret:     n.cfg.Secret,
	}
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
		n.peers[addr] = &peer{addr: addr}
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
	delete(n.admits, addr)
	delete(n.peerGen, addr)
	n.mu.Unlock()
	if p != nil {
		p.close()
	}
}

// SetMembers replaces the ring membership wholesale (self is always a
// member, listed or not).
func (n *Node) SetMembers(members []string) {
	n.mu.Lock()
	closing := n.setMembersLocked(members)
	n.mu.Unlock()
	for _, p := range closing {
		p.close()
	}
}

// setMembersLocked is SetMembers under n.mu: it returns the peers to
// close once the lock is released.
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
			delete(n.admits, m)
			delete(n.peerGen, m)
		}
	}
	for m := range want {
		if n.ring.Has(m) {
			continue
		}
		n.ring.Add(m)
		if m != n.cfg.Self {
			n.peers[m] = &peer{addr: m}
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

// FetchContent implements server.MeshHook: consult the content key's
// ring owner.  Every failure mode — owner down, shedding (the per-peer
// breaker fails fast while open), faulted — surfaces as an error the
// server answers with its local build path.
func (n *Node) FetchContent(ckey string, textBase, dataBase uint64, haveBytes bool) (*server.MeshReply, error) {
	if err := n.faults.Fire(fault.SiteMeshPeerFetch); err != nil {
		return nil, err
	}
	owner, p := n.ownerPeer(ckey)
	if p == nil {
		return nil, fmt.Errorf("mesh: owner %s of %s is not a known peer", owner, ckey)
	}
	c, err := p.client(n.clientOpts())
	if err != nil {
		p.up.Store(false)
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	info, blob, err := c.MeshFetch(ctx, &ipc.MeshReq{
		From: n.cfg.Self, CKey: ckey,
		TextBase: textBase, DataBase: dataBase,
		HaveBytes: haveBytes,
	})
	if err != nil {
		p.up.Store(false)
		return nil, err
	}
	p.up.Store(true)
	if info == nil || !info.Found {
		return &server.MeshReply{}, nil
	}
	return &server.MeshReply{
		Found:    true,
		MetaOnly: info.MetaOnly,
		Meta: server.MeshMeta{
			AbsPatches: info.AbsPatches, RelPatches: info.RelPatches, Syms: info.Syms,
			TextSize: info.TextSize, DataSize: info.DataSize,
		},
		Blob: blob,
	}, nil
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
	c, err := p.client(n.clientOpts())
	if err != nil {
		p.up.Store(false)
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	_, err = c.CallCtx(ctx, &ipc.Request{Op: ipc.OpMeshPut, Mesh: &ipc.MeshReq{
		From: n.cfg.Self, CKey: ckey, Blob: blob,
	}})
	if err != nil {
		p.up.Store(false)
		return false
	}
	p.up.Store(true)
	return true
}

// admitPeer passes one inbound mesh operation through the sender's
// admission gate; the returned *refusal.OverloadError (when shed)
// crosses the wire as itself, hint included, and trips the
// requester's per-peer breaker.
func (n *Node) admitPeer(from string) (func(), error) {
	if from == "" {
		from = "(unknown)"
	}
	n.mu.Lock()
	a := n.admits[from]
	if a == nil {
		a = server.NewAdmission(server.AdmissionConfig{
			MaxInflight: n.cfg.PeerMaxInflight,
			QueueDepth:  n.cfg.PeerQueueDepth,
		})
		n.admits[from] = a
	}
	n.mu.Unlock()
	return a.Acquire(context.Background())
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
		n.evicted[ckey] = time.Now()
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
		n.evicted[old] = time.Now()
	}
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

// declineEvicted reports whether a gossip offer of ckey should be
// declined because the hold area evicted it for capacity recently; it
// also prunes expired decline entries in passing.
func (n *Node) declineEvicted(ckey string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	for k, at := range n.evicted {
		if now.Sub(at) > holdEvictTTL {
			delete(n.evicted, k)
		}
	}
	_, ok := n.evicted[ckey]
	return ok
}

// HeldKeys lists the content keys parked in the hold area, oldest
// first.
func (n *Node) HeldKeys() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.holdSeq...)
}

// metaFromRecord summarizes a held record's link-time invariants
// without installing it.
func metaFromRecord(rec *store.Record) server.MeshMeta {
	return server.MeshMeta{
		AbsPatches: len(rec.AbsPatches),
		RelPatches: len(rec.RelPatches),
		Syms:       len(rec.Syms),
		TextSize:   rec.ResTextSize,
		DataSize:   rec.ResDataSize,
	}
}

func infoFromMeta(m server.MeshMeta) *ipc.MeshInfo {
	return &ipc.MeshInfo{
		Found:      true,
		AbsPatches: m.AbsPatches, RelPatches: m.RelPatches, Syms: m.Syms,
		TextSize: m.TextSize, DataSize: m.DataSize,
	}
}

// AcceptFetch serves an inbound OpMeshFetch: a metadata-only reply when
// the requester holds bytes to rebase, the encoded record otherwise —
// from the live variants index first, the hold area second.  Never
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
	if blob, meta, ok := n.srv.ExportContent(req.CKey, req.HaveBytes); ok {
		n.served.Add(1)
		info := infoFromMeta(meta)
		if req.HaveBytes {
			info.MetaOnly = true
			return info, nil, nil
		}
		info.Size = uint64(len(blob))
		return info, blob, nil
	}
	if blob := n.heldBlob(req.CKey); blob != nil {
		if rec, err := store.Decode(blob); err == nil && rec.ContentKey == req.CKey {
			n.served.Add(1)
			info := infoFromMeta(metaFromRecord(rec))
			if req.HaveBytes {
				info.MetaOnly = true
				return info, nil, nil
			}
			info.Size = uint64(len(blob))
			return info, blob, nil
		}
		// Damaged or mislabeled hold: drop it and report a miss.
		n.dropHold(req.CKey)
	}
	return &ipc.MeshInfo{Found: false}, nil, nil
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

// AcceptGossip answers a peer's anti-entropy digest: the reply carries
// this daemon's namespace generation and which of the offered content
// keys it wants pushed.  Keys the hold area evicted for capacity
// recently are declined — re-requesting them every round would churn
// the same blobs over the wire forever.
func (n *Node) AcceptGossip(req *ipc.MeshReq) (*ipc.MeshInfo, error) {
	n.mu.Lock()
	n.peerGen[req.From] = req.Gen
	n.mu.Unlock()
	info := &ipc.MeshInfo{Gen: n.srv.NamespaceGen()}
	for _, k := range req.Keys {
		if !n.srv.HasVariant(k) && n.heldBlob(k) == nil && !n.declineEvicted(k) {
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
// announcer to pick the union up and re-announce it.  Epoch 0 (a
// legacy announce) always applies.
func (n *Node) applyAnnounce(members []string, epoch uint64, from string) (applied, changed bool) {
	n.mu.Lock()
	cur := n.ring.Members()
	apply := members
	switch {
	case epoch == 0 || epoch > n.memberEpoch:
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
		if epoch != 0 && applied {
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
	if blob, _, ok := n.srv.ExportContent(ckey, false); ok {
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
			c, err := p.client(n.clientOpts())
			if err != nil {
				p.up.Store(false)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
			resp, err := c.CallCtx(ctx, &ipc.Request{Op: ipc.OpMeshRebalance, Mesh: &ipc.MeshReq{
				From: n.cfg.Self, Keys: members, Gen: epoch,
			}})
			cancel()
			if err != nil {
				p.up.Store(false)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			p.up.Store(true)
			if resp.Mesh != nil && !resp.Mesh.Found {
				diverged = true
				if resp.Mesh.Gen > divergentEpoch {
					divergentEpoch = resp.Mesh.Gen
				}
				for _, m := range resp.Mesh.Want {
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
	gen := n.srv.NamespaceGen()
	keys := append(n.srv.ContentKeys(), n.HeldKeys()...)
	var firstErr error
	for _, p := range n.peerList() {
		var digest []string
		for _, k := range keys {
			if owner, _ := n.ownerPeer(k); owner == p.addr {
				digest = append(digest, k)
			}
		}
		c, cerr := p.client(n.clientOpts())
		if cerr != nil {
			p.up.Store(false)
			if firstErr == nil {
				firstErr = cerr
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
		resp, cerr := c.CallCtx(ctx, &ipc.Request{Op: ipc.OpMeshGossip, Mesh: &ipc.MeshReq{
			From: n.cfg.Self, Gen: gen, Keys: digest,
		}})
		cancel()
		if cerr != nil {
			p.up.Store(false)
			if firstErr == nil {
				firstErr = cerr
			}
			continue
		}
		p.up.Store(true)
		if resp.Mesh == nil {
			continue
		}
		n.mu.Lock()
		n.peerGen[p.addr] = resp.Mesh.Gen
		n.mu.Unlock()
		for _, want := range resp.Mesh.Want {
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
	c, err := p.client(n.clientOpts())
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
