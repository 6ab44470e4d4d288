package daemon

// End-to-end tests of the federated daemon mesh: consistent-hash
// sharded content, local rebase before any peer consult, blob
// streaming, anti-entropy gossip, shard rebalance (including a mid-rebalance
// crash), per-peer overload/breaker isolation, and peer auth.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"omos"
	"omos/internal/ipc"
	"omos/internal/mesh"
	"omos/internal/refusal"
)

// defineMeshWorkload installs `progs` shared libraries at fixed fleet
// placements plus one program per library.  Identical sources on every
// daemon yield identical content keys, which is what makes the mesh's
// cross-daemon reuse sound.
func defineMeshWorkload(t *testing.T, sys *omos.System, progs int) {
	t.Helper()
	for i := 0; i < progs; i++ {
		lib := fmt.Sprintf(`(constraint-list "T" %#x "D" %#x)
(source "c" "int mul%d(int x) { return x * %d; }")`,
			0x3000000+uint64(i)*0x100000, 0x43000000+uint64(i)*0x100000, i, i+2)
		if err := sys.DefineLibrary(fmt.Sprintf("/lib/mm%d", i), lib); err != nil {
			t.Fatal(err)
		}
		if err := sys.Define(fmt.Sprintf("/bin/mp%d", i), meshProgBP(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func meshProgBP(i int) string {
	return fmt.Sprintf(`(merge /lib/crt0.o (source "c" "extern int mul%d(int); int main() { return mul%d(10); }") /lib/mm%d)`,
		i, i, i)
}

func runMeshProg(t *testing.T, sys *omos.System, path string, want int) {
	t.Helper()
	res, err := sys.Run(path, nil)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if res.ExitCode != uint64(want) {
		t.Fatalf("%s: exit = %d, want %d", path, res.ExitCode, want)
	}
}

// TestMeshFourDaemons is the mesh smoke: four daemons share the ring,
// daemon 0 builds the workload, and every other daemon's placement
// misses are served over the wire — the owner's bytes streamed on first
// contact — and once a daemon holds a variant, its placement misses
// rebase that variant locally without consulting anyone.
func TestMeshFourDaemons(t *testing.T) {
	const nD, nP = 4, 3
	secret := "mesh-smoke"
	syss := make([]*omos.System, nD)
	nodes := make([]*mesh.Node, nD)
	addrs := make([]string, nD)
	for i := range syss {
		sys, err := omos.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		syss[i] = sys
		nodes[i], _, addrs[i] = startMeshMember(t, sys, mesh.Config{Secret: secret})
	}
	for i, n := range nodes {
		for j, a := range addrs {
			if j != i {
				n.AddPeer(a)
			}
		}
	}
	for i := range syss {
		defineMeshWorkload(t, syss[i], nP)
	}

	// Daemon 0 builds everything cold and offers each record to its
	// ring owner; the rest of the fleet then never relinks any of it.
	for p := 0; p < nP; p++ {
		runMeshProg(t, syss[0], fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
	}
	for i := 1; i < nD; i++ {
		for p := 0; p < nP; p++ {
			runMeshProg(t, syss[i], fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
		}
	}
	// Placement variants: the same program bodies at fresh namespace
	// paths force new placements of content every daemon now holds.
	// Each is a local rebase: no peer consult, nothing linked.
	for i := 0; i < nD; i++ {
		before := syss[i].Srv.Stats()
		for p := 0; p < nP; p++ {
			path := fmt.Sprintf("/bin/mp%dv", p)
			if err := syss[i].Define(path, meshProgBP(p)); err != nil {
				t.Fatal(err)
			}
			runMeshProg(t, syss[i], path, 10*(p+2))
		}
		after := syss[i].Srv.Stats()
		if after.MeshFetches != before.MeshFetches || after.BuiltBytes != before.BuiltBytes ||
			after.Rebases != before.Rebases+nP {
			t.Fatalf("daemon %d's %d placement variants: fetches %d -> %d, built bytes %d -> %d, rebases %d -> %d; want no consult, no link, one rebase each",
				i, nP, before.MeshFetches, after.MeshFetches, before.BuiltBytes, after.BuiltBytes, before.Rebases, after.Rebases)
		}
	}

	var fetches, blob, fallbacks uint64
	for i := range syss {
		st := syss[i].Srv.Stats()
		fetches += st.MeshFetches
		blob += st.MeshBlobInstalls
		fallbacks += st.MeshFallbacks
	}
	if fetches == 0 {
		t.Fatal("no placement miss ever consulted a ring owner")
	}
	if blob == 0 {
		t.Fatal("no remote miss streamed the owner's bytes")
	}
	if fetches != blob+fallbacks {
		t.Fatalf("fetch accounting: %d fetches != %d blob + %d fallbacks", fetches, blob, fallbacks)
	}

	// Gossip runs clean on a converged fleet, and the mesh shows up in
	// the wire-level stats and health reports.
	if _, err := nodes[0].GossipTick(); err != nil {
		t.Fatalf("gossip: %v", err)
	}
	c, err := ipc.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sres, err := c.Call(&ipc.Request{Op: ipc.OpStats})
	if err != nil || !strings.Contains(sres.Text, "mesh: self=") {
		t.Fatalf("stats missing mesh line: %v\n%s", err, sres.Text)
	}
	hres, err := c.Call(&ipc.Request{Op: ipc.OpHealth})
	if err != nil || hres.Health == nil {
		t.Fatalf("health: %v", err)
	}
	h := hres.Health
	noGossip := !strings.Contains(sres.Text, " gossip-rounds=") || strings.Contains(sres.Text, " gossip-rounds=0 ")
	if h.MeshShards != nD || h.MeshPeers != nD-1 || noGossip {
		t.Fatalf("mesh health = shards %d peers %d, want %d/%d, and gossip rounds > 0 in stats:\n%s",
			h.MeshShards, h.MeshPeers, nD, nD-1, sres.Text)
	}
}

// TestMeshJoinGossipConverges: a daemon that built its whole shard
// alone joins a peer; one gossip round pushes exactly the content the
// new ring assigns to the peer, and rebalance moves the same set.
func TestMeshJoinGossipConverges(t *testing.T) {
	sysA, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	nodeA, _, addrA := startMeshMember(t, sysA, mesh.Config{Secret: "join"})
	sysB, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	nodeB, _, addrB := startMeshMember(t, sysB, mesh.Config{Secret: "join"})

	// A builds alone (single-member ring: everything is local).
	defineMeshWorkload(t, sysA, 3)
	for p := 0; p < 3; p++ {
		runMeshProg(t, sysA, fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
	}
	nodeA.AddPeer(addrB)
	nodeB.AddPeer(addrA)

	// The reference ring predicts the post-join owner of every key.
	ref := mesh.NewRing(0)
	ref.Add(addrA)
	ref.Add(addrB)
	owned := map[string]bool{}
	for _, ck := range sysA.Srv.ContentKeys() {
		if ref.Owner(ck) == addrB {
			owned[ck] = true
		}
	}

	pushed, err := nodeA.GossipTick()
	if err != nil {
		t.Fatalf("gossip: %v", err)
	}
	if pushed != len(owned) {
		t.Fatalf("gossip pushed %d keys, new peer owns %d", pushed, len(owned))
	}
	held := nodeB.HeldKeys()
	if len(held) != len(owned) {
		t.Fatalf("peer holds %d keys, owns %d", len(held), len(owned))
	}
	for _, ck := range held {
		if !owned[ck] {
			t.Fatalf("peer holds %s which it does not own", ck)
		}
	}
	// A second round finds nothing missing.
	if pushed, err := nodeA.GossipTick(); err != nil || pushed != 0 {
		t.Fatalf("second gossip round: pushed %d, err %v", pushed, err)
	}
	// Rebalance re-copies the same shard (idempotent by construction).
	if moved, err := nodeA.Rebalance(); err != nil || moved != len(owned) {
		t.Fatalf("rebalance moved %d, want %d (err %v)", moved, len(owned), err)
	}
}

// TestMeshOwnerDownLocalBuild: a dead peer owns a slice of the
// keyspace; every consult of it degrades to the local build path and
// the workload stays fully available and correct.
func TestMeshOwnerDownLocalBuild(t *testing.T) {
	sysB, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	nodeB, _, _ := startMeshMember(t, sysB, mesh.Config{Secret: "down"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	nodeB.AddPeer(dead)

	defineMeshWorkload(t, sysB, 4)
	for p := 0; p < 4; p++ {
		runMeshProg(t, sysB, fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
	}
	st := sysB.Srv.Stats()
	if st.MeshFetches != st.MeshFallbacks {
		t.Fatalf("dead owner: %d fetches but %d fallbacks", st.MeshFetches, st.MeshFallbacks)
	}
	if up, total := nodeB.PeersUp(); total != 1 || up != 0 {
		t.Fatalf("peers up = %d/%d, want 0/1", up, total)
	}
}

// TestMeshSlowPeerBreaker: a slow owner backs up its per-peer
// admission slot; the peer's fetches shed, the shed trips the
// requester's per-peer circuit breaker (fail-fast), and a successful
// exchange closes it again.
func TestMeshSlowPeerBreaker(t *testing.T) {
	sysA, err := omos.NewSystemWith(omos.Options{
		FaultSpec: "mesh.peer-fetch:delay:p=1:delay=300ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, addrA := startMeshMember(t, sysA, mesh.Config{
		Secret:          "slow",
		Faults:          sysA.Faults,
		PeerMaxInflight: 1,
		PeerQueueDepth:  1,
	})
	c, err := ipc.DialWith(addrA, ipc.Options{
		ConnectTimeout: 2 * time.Second,
		CallTimeout:    10 * time.Second,
		MeshSecret:     "slow",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two long fetches occupy the slot and the queue for 300ms each.
	ctx := context.Background()
	occupied := make([]error, 2)
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			_, _, occupied[j] = c.MeshFetch(ctx, &ipc.MeshReq{From: "jam", CKey: fmt.Sprintf("occupy-%d", j)})
		}(j)
	}
	time.Sleep(100 * time.Millisecond)

	// Every fetch during the jam is shed or breaker-blocked.
	sawOpen := false
	for k := 0; k < 6; k++ {
		_, _, err := c.MeshFetch(ctx, &ipc.MeshReq{From: "jam", CKey: "probe"})
		var oe *refusal.OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("fetch during jam: err = %v, want overload", err)
		}
		if c.BreakerOpen() {
			sawOpen = true
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawOpen {
		t.Fatal("per-peer breaker never opened under repeated sheds")
	}

	// The slow fetches themselves were delayed, not broken...
	wg.Wait()
	if occupied[0] != nil || occupied[1] != nil {
		t.Fatalf("occupying fetches failed: %v / %v", occupied[0], occupied[1])
	}
	// ...and their success closed the breaker again.
	if c.BreakerOpen() {
		t.Fatal("breaker still open after the peer recovered")
	}
}

// TestMeshRebalanceCrashConsistency: a rebalance interrupted partway
// (injected push faults, then both daemons go down) must leave both
// shards correct at warm restart, and a rerun finishes the move.
func TestMeshRebalanceCrashConsistency(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sysA, err := omos.NewSystemWith(omos.Options{
		StoreDir:  dirA,
		FaultSpec: "mesh.rebalance:error:n=2:count=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := omos.NewSystemWith(omos.Options{StoreDir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	nodeA, srvA, addrA := startMeshMember(t, sysA, mesh.Config{Secret: "crash", Faults: sysA.Faults})
	nodeB, srvB, addrB := startMeshMember(t, sysB, mesh.Config{Secret: "crash"})

	defineMeshWorkload(t, sysA, 3)
	for p := 0; p < 3; p++ {
		runMeshProg(t, sysA, fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
	}
	nodeA.AddPeer(addrB)
	nodeB.AddPeer(addrA)
	ref := mesh.NewRing(0)
	ref.Add(addrA)
	ref.Add(addrB)
	owned := 0
	for _, ck := range sysA.Srv.ContentKeys() {
		if ref.Owner(ck) == addrB {
			owned++
		}
	}

	// The armed budget interrupts the rebalance partway through: some
	// pushes land, some are skipped.  Nothing is deleted either way.
	moved, err := nodeA.Rebalance()
	if err != nil {
		t.Fatalf("interrupted rebalance: %v", err)
	}
	if owned > 0 && moved >= owned {
		t.Fatalf("fault budget did not interrupt the rebalance (%d/%d moved)", moved, owned)
	}
	if held := nodeB.HeldKeys(); len(held) != moved {
		t.Fatalf("peer holds %d keys after %d successful pushes", len(held), moved)
	}

	// Crash both daemons mid-move.
	nodeA.Close()
	nodeB.Close()
	srvA.Shutdown()
	srvB.Shutdown()
	if err := sysA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sysB.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm restart on the same stores, no faults: both shards must
	// serve the full workload correctly.
	sysA2, err := omos.NewSystemWith(omos.Options{StoreDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	sysB2, err := omos.NewSystemWith(omos.Options{StoreDir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	nodeA2, _, addrA2 := startMeshMember(t, sysA2, mesh.Config{Secret: "crash"})
	nodeB2, _, addrB2 := startMeshMember(t, sysB2, mesh.Config{Secret: "crash"})
	nodeA2.AddPeer(addrB2)
	nodeB2.AddPeer(addrA2)
	defineMeshWorkload(t, sysA2, 3)
	defineMeshWorkload(t, sysB2, 3)
	for p := 0; p < 3; p++ {
		runMeshProg(t, sysA2, fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
		runMeshProg(t, sysB2, fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
	}

	// The resumed rebalance completes: afterwards every key the new
	// ring assigns to B is either held by or live on B.
	if _, err := nodeA2.Rebalance(); err != nil {
		t.Fatalf("resumed rebalance: %v", err)
	}
	ref2 := mesh.NewRing(0)
	ref2.Add(addrA2)
	ref2.Add(addrB2)
	heldB := map[string]bool{}
	for _, ck := range nodeB2.HeldKeys() {
		heldB[ck] = true
	}
	for _, ck := range sysA2.Srv.ContentKeys() {
		if ref2.Owner(ck) != addrB2 {
			continue
		}
		if !heldB[ck] && !sysB2.Srv.HasVariant(ck) {
			t.Fatalf("key %s owned by B is on neither shard after resumed rebalance", ck)
		}
	}
	if err := sysA2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sysB2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMeshAnnounceMergesConcurrentJoins: two daemons that each believe
// the mesh is {self, B, C} announce membership concurrently.  The
// epoch-versioned announce detects the conflict at the shared peers
// and the losing announcer re-announces the union, so every ring
// converges on all four members — no live member is silently dropped
// by whichever announce happened to arrive last.
func TestMeshAnnounceMergesConcurrentJoins(t *testing.T) {
	const nD = 4
	nodes := make([]*mesh.Node, nD)
	addrs := make([]string, nD)
	for i := 0; i < nD; i++ {
		sys, err := omos.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], _, addrs[i] = startMeshMember(t, sys, mesh.Config{Secret: "announce"})
	}
	a, b, c, d := 0, 1, 2, 3
	nodes[a].AddPeer(addrs[b])
	nodes[a].AddPeer(addrs[c])
	nodes[d].AddPeer(addrs[b])
	nodes[d].AddPeer(addrs[c])

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, n := range []*mesh.Node{nodes[a], nodes[d]} {
		wg.Add(1)
		go func(i int, n *mesh.Node) {
			defer wg.Done()
			errs[i] = n.AnnounceMembership()
		}(i, n)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("announce errors: %v / %v", errs[0], errs[1])
	}
	for i, n := range nodes {
		members := n.Members()
		if len(members) != nD {
			t.Fatalf("node %d membership after racing announces = %v, want all %d members",
				i, members, nD)
		}
	}
}

// TestMeshHoldBytesBounded: the hold area is bounded by total encoded
// bytes, not just record count, and gossip declines re-offering keys
// it just evicted for capacity — otherwise the mesh would churn the
// same blobs over the wire every anti-entropy round.
func TestMeshHoldBytesBounded(t *testing.T) {
	sysA, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defineMeshWorkload(t, sysA, 2)
	for p := 0; p < 2; p++ {
		runMeshProg(t, sysA, fmt.Sprintf("/bin/mp%d", p), 10*(p+2))
	}
	keys := sysA.Srv.ContentKeys()
	if len(keys) < 2 {
		t.Fatalf("workload produced %d content keys, need 2", len(keys))
	}
	blobs := make([][]byte, 2)
	maxLen := 0
	for i := 0; i < 2; i++ {
		blob, ok := sysA.Srv.ExportContent(keys[i])
		if !ok {
			t.Fatalf("content key %s not exportable", keys[i])
		}
		blobs[i] = blob
		if len(blob) > maxLen {
			maxLen = len(blob)
		}
	}

	// A hold area sized for one record at a time.
	sysB, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := mesh.New(sysB.Srv, mesh.Config{Self: "hold-test", HoldMaxBytes: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nodeB.Close)

	if err := nodeB.AcceptPut(&ipc.MeshReq{From: "a", CKey: keys[0], Blob: blobs[0]}); err != nil {
		t.Fatal(err)
	}
	if held := nodeB.HeldKeys(); len(held) != 1 || held[0] != keys[0] {
		t.Fatalf("holds after first put = %v", held)
	}
	// The second record does not fit next to the first: the byte bound
	// evicts the oldest.
	if err := nodeB.AcceptPut(&ipc.MeshReq{From: "a", CKey: keys[1], Blob: blobs[1]}); err != nil {
		t.Fatal(err)
	}
	if held := nodeB.HeldKeys(); len(held) != 1 || held[0] != keys[1] {
		t.Fatalf("holds after second put = %v, want just %s (byte bound not enforced)", held, keys[1])
	}
	// A gossip offer of both keys wants neither: one is held, the other
	// was just evicted for capacity and re-requesting it would churn.
	info, err := nodeB.AcceptGossip(&ipc.MeshReq{From: "a", Keys: []string{keys[0], keys[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Want) != 0 {
		t.Fatalf("gossip re-requests evicted keys: want list = %v", info.Want)
	}
	// The decline is targeted: a never-seen key is still wanted.
	info, err = nodeB.AcceptGossip(&ipc.MeshReq{From: "a", Keys: []string{"fresh-key"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Want) != 1 || info.Want[0] != "fresh-key" {
		t.Fatalf("fresh key not wanted: %v", info.Want)
	}
}

// TestMeshAuthReject: mesh operations need the HMAC hello proof when
// the daemon has a mesh secret; ordinary client traffic does not.
func TestMeshAuthReject(t *testing.T) {
	sysA, err := omos.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	_, _, addrA := startMeshMember(t, sysA, mesh.Config{Secret: "right"})
	ctx := context.Background()

	for _, secret := range []string{"", "wrong"} {
		c, err := ipc.DialWith(addrA, ipc.Options{MeshSecret: secret})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.MeshFetch(ctx, &ipc.MeshReq{From: "x", CKey: "k"})
		if err == nil || !strings.Contains(err.Error(), "not authenticated") {
			t.Fatalf("mesh fetch with secret %q: err = %v, want auth rejection", secret, err)
		}
		// Only mesh ops are gated: the same connection still serves
		// ordinary client traffic.
		if _, err := c.Call(&ipc.Request{Op: ipc.OpStats}); err != nil {
			t.Fatalf("stats on unauthenticated conn: %v", err)
		}
		c.Close()
	}

	c, err := ipc.DialWith(addrA, ipc.Options{MeshSecret: "right"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info, _, err := c.MeshFetch(ctx, &ipc.MeshReq{From: "x", CKey: "k"})
	if err != nil {
		t.Fatalf("authenticated mesh fetch: %v", err)
	}
	if info.Found {
		t.Fatal("unknown content key reported found")
	}
}
