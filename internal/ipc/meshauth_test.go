package ipc

// Tests of the mesh peer-auth handshake: the hello challenge-response
// must reject a captured proof replayed on a new connection (the
// server nonce is fresh per connection and never client-chosen).

import (
	"context"
	"net"
	"testing"
)

// meshCallRaw sends one tagged OpMeshFetch over an upgraded
// connection and returns the Final response — the raw-wire equivalent
// of Client.MeshFetch, for connections whose handshake the test spoke
// by hand.
func meshCallRaw(t *testing.T, conn net.Conn, tag uint64) *Response {
	t.Helper()
	if _, err := conn.Write(encodeFrame(tag, &Request{Op: OpMeshFetch, Mesh: &MeshReq{From: "raw", CKey: "k"}})); err != nil {
		t.Fatal(err)
	}
	var hdr [hdrSize]byte
	var buf []byte
	for {
		gotTag, payload, err := readTagged(conn, &hdr, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotTag != tag {
			t.Fatalf("completion for tag %d, sent %d", gotTag, tag)
		}
		resp := new(Response)
		if err := decodeResponse(payload, resp); err != nil {
			t.Fatal(err)
		}
		if resp.Final {
			return resp
		}
	}
}

// TestMeshHelloReplayRejected pins the challenge-response property: a
// hello and proof captured off one authenticated connection do not
// authenticate a second connection, because the server issues a fresh
// challenge nonce per connection and the proof is bound to it.
func TestMeshHelloReplayRejected(t *testing.T) {
	const secret = "replay-secret"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newFakeBackend())
	srv.MeshSecret = secret
	go srv.Serve(l)
	t.Cleanup(srv.Shutdown)
	t.Cleanup(func() { l.Close() })
	addr := l.Addr().String()

	// The real client path still authenticates.
	c, err := DialWith(addr, Options{MeshSecret: secret})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MeshFetch(context.Background(), &MeshReq{From: "x", CKey: "k"}); err != nil {
		t.Fatalf("authenticated mesh fetch: %v", err)
	}
	c.Close()

	// Speak the handshake by hand, recording the frames an on-path
	// attacker could capture: the hello (client nonce) and the proof.
	clientNonce, err := meshNonce()
	if err != nil {
		t.Fatal(err)
	}
	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	hi := &hello{Version: protoVersion, Text: clientNonce}
	ack1 := exchangeHello(t, conn1, hi)
	if !ack1.Ack || ack1.Text == "" {
		t.Fatalf("secretful server issued no challenge: %+v", ack1)
	}
	captured := &hello{Version: protoVersion, Proof: meshProof(secret, ack1.Text, clientNonce, protoVersionText)}
	if fin1 := exchangeHello(t, conn1, captured); !fin1.Ack {
		t.Fatalf("final ack: %+v", fin1)
	}
	if resp := meshCallRaw(t, conn1, 1); resp.Err != "" {
		t.Fatalf("legitimate handshake not authenticated: %q", resp.Err)
	}

	// Replay both captured frames on a fresh connection.  The server
	// must issue a different challenge, so the captured proof fails and
	// mesh operations are refused — while the protocol upgrade itself
	// still succeeds (only mesh ops are gated).
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ack2 := exchangeHello(t, conn2, hi)
	if ack2.Text == "" || ack2.Text == ack1.Text {
		t.Fatalf("challenge not fresh per connection: %q then %q", ack1.Text, ack2.Text)
	}
	if fin2 := exchangeHello(t, conn2, captured); !fin2.Ack {
		t.Fatalf("wrong proof must still upgrade the protocol: %+v", fin2)
	}
	if resp := meshCallRaw(t, conn2, 1); resp.Err != meshAuthMsg {
		t.Fatalf("replayed proof: mesh fetch answered %q, want %q", resp.Err, meshAuthMsg)
	}
}
