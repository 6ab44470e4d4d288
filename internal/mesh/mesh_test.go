package mesh

import (
	"fmt"
	"strings"
	"testing"

	"omos/internal/ipc"
	"omos/internal/osim"
	"omos/internal/server"
	"omos/internal/store"
)

// newTestNode is a node over an empty server with two ring members
// besides itself.  The members have no port, so a push to them fails
// at the dial without touching the network.
func newTestNode(tb testing.TB, holdMaxBytes int) *Node {
	tb.Helper()
	n, err := New(server.New(osim.NewKernel()), Config{Self: "self", HoldMaxBytes: holdMaxBytes})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)
	n.AddPeer("member-a")
	n.AddPeer("member-b")
	return n
}

// gateCount is how many distinct admission gates the senders reach,
// the ring members' own included.
func gateCount(n *Node, senders []string) int {
	gates := map[*server.Admission]bool{}
	for _, s := range append(senders, n.Members()...) {
		gates[n.gate(s)] = true
	}
	return len(gates)
}

// sealedRecord is a well-formed store record labeled ckey, its size
// set by pad.
func sealedRecord(tb testing.TB, ckey string, pad []byte) []byte {
	tb.Helper()
	blob, err := store.Encode(&store.Record{Key: "key-" + ckey, Name: string(pad), ContentKey: ckey})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// checkBounds fails when a node holds more state than its bounds allow.
func checkBounds(tb testing.TB, n *Node, senders []string) {
	tb.Helper()
	if got, members := gateCount(n, senders), len(n.Members()); got > members+1 {
		tb.Fatalf("%d senders reach %d gates, want at most %d members + 1", len(senders), got, members)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	bytes := 0
	for _, b := range n.holds {
		bytes += len(b)
	}
	switch {
	case len(n.holds) > holdMax || len(n.holdSeq) != len(n.holds):
		tb.Fatalf("%d holds in a sequence of %d, bound %d", len(n.holds), len(n.holdSeq), holdMax)
	case bytes != n.holdBytes || bytes > n.cfg.HoldMaxBytes:
		tb.Fatalf("holds carry %d bytes, counted %d, bound %d", bytes, n.holdBytes, n.cfg.HoldMaxBytes)
	case len(n.evicted) > holdMax:
		tb.Fatalf("%d declined keys remembered, bound %d", len(n.evicted), holdMax)
	}
}

// TestMeshGatesBounded: every inbound sender that is not a ring member
// shares one admission gate, so wire-supplied names cannot grow the
// node's state.
func TestMeshGatesBounded(t *testing.T) {
	n := newTestNode(t, 0)
	senders := make([]string, 1000)
	for i := range senders {
		senders[i] = fmt.Sprintf("stranger-%d", i)
		if _, err := n.AcceptGossip(&ipc.MeshReq{From: senders[i], Keys: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
	}
	checkBounds(t, n, senders)
	if a, b := n.gate("member-a"), n.gate("member-b"); a == b || a == n.others {
		t.Fatal("ring members do not keep gates of their own")
	}
}

// TestMeshEpochZeroRefused: no announcer sends epoch 0, so an announce
// carrying it is malformed and leaves the ring as it was.
func TestMeshEpochZeroRefused(t *testing.T) {
	n := newTestNode(t, 0)
	before := n.Members()
	if _, err := n.AcceptRebalance(&ipc.MeshReq{From: "member-a", Keys: []string{"self"}, Gen: 0}); err == nil {
		t.Fatal("an epoch-0 announce was accepted")
	}
	if got := n.Members(); strings.Join(got, ",") != strings.Join(before, ",") {
		t.Fatalf("members %v after a refused announce, were %v", got, before)
	}
}

// FuzzMeshAccept feeds arbitrary requests to the four inbound
// handlers of one node with a small hold area.  Nothing may panic, and
// the gates, the holds and the declined keys stay within their bounds
// however many senders, keys and records arrive.
func FuzzMeshAccept(f *testing.F) {
	n := newTestNode(f, 2<<10)
	var senders []string
	f.Add(uint8(0), "member-a", "ck", []byte("blob"), "k1\nk2", uint64(1))
	f.Add(uint8(1), "stranger", "ck", sealedRecord(f, "ck", nil), "", uint64(0))
	f.Add(uint8(2), "stranger", "big", make([]byte, 4<<10), "", uint64(0))
	f.Add(uint8(3), "", "", []byte{}, "ck\nbig\nfresh", uint64(0))
	f.Add(uint8(4), "member-b", "", []byte{}, "a\nb\nc", uint64(7))
	f.Fuzz(func(t *testing.T, op uint8, from, ckey string, blob []byte, keys string, gen uint64) {
		req := &ipc.MeshReq{From: from, CKey: ckey, Blob: blob, Keys: strings.Split(keys, "\n"), Gen: gen}
		switch op % 5 {
		case 0:
			n.AcceptFetch(req)
		case 1:
			n.AcceptPut(req)
		case 2: // a well-formed record, so the hold area fills and evicts
			req.Blob = sealedRecord(t, ckey, blob)
			n.AcceptPut(req)
		case 3:
			n.AcceptGossip(req)
		case 4: // members without a port: pushes to them never dial out
			for i, k := range req.Keys {
				req.Keys[i] = fmt.Sprintf("member-%d", len(k)%8)
			}
			n.AcceptRebalance(req)
		}
		if len(senders) < 4096 {
			senders = append(senders, from)
		}
		checkBounds(t, n, senders)
	})
}
