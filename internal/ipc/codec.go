package ipc

// The message codecs of the wire: every frame of the hello exchange
// carries one hello, and every frame after it one Request (client to
// server) or one Response (server to client), all laid out on
// internal/lebin's field convention — integers
// little-endian and fixed-width, a string or blob as a u32 length and
// the bytes, a list as a u32 count and the elements:
//
//	hello:    magic "OMOS", Version (u32), Ack, Text, Proof
//	Request:  Op, Path, Unit, Text, Args, Blob, AllowRebind,
//	          presence, [Mesh]
//	Response: Err, Text, Paths, Blob, Flag, ExitCode, Output,
//	          User, Sys, Server, Wait, Index, Final,
//	          presence, [Health] [Refusal] [Mesh]
//
// Fields go in declaration order (nested payloads last), an int
// travels as its 64-bit two's complement and a bool as one byte, 0 or
// 1.  The presence byte has one bit per optional nested payload; a set
// bit means the payload follows, in bit order, its own fields in
// declaration order.  A refusal is the one payload that names its own
// type: a kind byte, then that refusal type's fields (refusal.Append).
// Nothing else is self-describing: the layout is the protocol
// version's, so a change to it is a new protoVersion.  Only the hello's
// first eight bytes, the magic and the version, are every version's:
// they stay where they are, so any peer reads that far and refuses a
// version it does not speak.
//
// Decoding is strict, because the bytes come from outside the
// process: every length and count is bounded by lebin.Reader, a bool
// other than 0 or 1, an unknown presence bit, an unknown refusal kind,
// a hello of another version or a trailing byte is refused, and so an
// accepted payload re-encodes to itself.  Zero-length lists and blobs
// decode as nil, and no decoded value aliases the payload, which is
// the caller's reused receive buffer.

import (
	"errors"
	"fmt"

	"omos/internal/lebin"
	"omos/internal/refusal"
)

// Presence bits, in the order their payloads follow.
const (
	hasHealth = 1 << iota
	hasRefusal
	hasMesh

	requestPresence  = hasMesh
	responsePresence = hasHealth | hasRefusal | hasMesh
)

// minStrBytes is the smallest encoding of a list element: an empty
// string's length prefix.
const minStrBytes = 4

// opByName interns a decoded Op, so a request for a known operation
// allocates no string for it.  An op missing here still decodes; it
// only costs that allocation.
var opByName = func() map[string]Op {
	m := map[string]Op{}
	for _, op := range []Op{OpPing, OpDefine, OpDefineLib, OpPutObject, OpAssemble,
		OpCompile, OpList, OpRemove, OpRun, OpRunBoot, OpDisasm, OpStats, OpGetMeta,
		OpGetObject, OpHealth, OpGraph, OpExplain, OpUpgrade, OpUpgradeStatus,
		OpRollback, OpInstantiateBatch, OpMeshFetch, OpMeshPut,
		OpMeshGossip, OpMeshRebalance} {
		m[string(op)] = op
	}
	return m
}()

// hello is the one message of the hello exchange, which opens every
// connection: the client's hello, the server's ack (Ack set) and its
// refusal (Ack clear), and the client's answer to a mesh challenge.
// Text is the client's mesh nonce in a hello, the server's challenge
// in an ack, and the reason in a refusal; Proof is the answer,
// meshProof(secret, challenge, nonce, version).  A secretless client
// sends no nonce, and a secretless server issues no challenge.
type hello struct {
	Version uint32
	Ack     bool
	Text    string
	Proof   []byte
}

// helloMagic opens every hello payload, at offset 0 in every version.
const helloMagic = "OMOS"

// encodeHello appends h's encoding to w.
func encodeHello(w *lebin.Writer, h *hello) {
	*w = append(*w, helloMagic...)
	w.U32(h.Version)
	w.Bool(h.Ack)
	w.Str(h.Text)
	w.Bytes(h.Proof)
}

// decodeHello overwrites every field of *h with the hello encoded in
// p.  It reads a hello of another version only as far as its Version,
// which names the version the peer speaks, and refuses it: the rest is
// that version's layout.
func decodeHello(p []byte, h *hello) error {
	r := lebin.NewReader(p)
	*h = hello{}
	if string(r.Raw(len(helloMagic))) != helloMagic {
		return errors.New("not a hello")
	}
	h.Version = r.U32()
	if r.Err() == nil && h.Version != protoVersion {
		return fmt.Errorf("peer speaks protocol version %d", h.Version)
	}
	h.Ack = r.Bool()
	h.Text = r.Str()
	h.Proof = getBlob(r)
	return finish(r)
}

// encodeRequest appends req's encoding to w.
func encodeRequest(w *lebin.Writer, req *Request) {
	w.Str(string(req.Op))
	w.Str(req.Path)
	w.Str(req.Unit)
	w.Str(req.Text)
	putStrs(w, req.Args)
	w.Bytes(req.Blob)
	w.Bool(req.AllowRebind)
	var has uint8
	if req.Mesh != nil {
		has |= hasMesh
	}
	w.U8(has)
	if m := req.Mesh; m != nil {
		w.Str(m.From)
		w.Str(m.CKey)
		w.Bytes(m.Blob)
		w.U64(m.Gen)
		putStrs(w, m.Keys)
	}
}

// decodeRequest overwrites every field of *req with the request
// encoded in p.
func decodeRequest(p []byte, req *Request) error {
	r := lebin.NewReader(p)
	*req = Request{
		Op:          getOp(r),
		Path:        r.Str(),
		Unit:        r.Str(),
		Text:        r.Str(),
		Args:        getStrs(r),
		Blob:        getBlob(r),
		AllowRebind: r.Bool(),
	}
	if getPresence(r, requestPresence)&hasMesh != 0 {
		req.Mesh = &MeshReq{
			From: r.Str(),
			CKey: r.Str(),
			Blob: getBlob(r),
			Gen:  r.U64(),
			Keys: getStrs(r),
		}
	}
	return finish(r)
}

// encodeResponse appends resp's encoding to w.
func encodeResponse(w *lebin.Writer, resp *Response) {
	w.Str(resp.Err)
	w.Str(resp.Text)
	putStrs(w, resp.Paths)
	w.Bytes(resp.Blob)
	w.Bool(resp.Flag)
	w.U64(resp.ExitCode)
	w.Str(resp.Output)
	w.U64(resp.User)
	w.U64(resp.Sys)
	w.U64(resp.Server)
	w.U64(resp.Wait)
	w.U64(uint64(resp.Index))
	w.Bool(resp.Final)
	var has uint8
	if resp.Health != nil {
		has |= hasHealth
	}
	if resp.Refusal != nil {
		has |= hasRefusal
	}
	if resp.Mesh != nil {
		has |= hasMesh
	}
	w.U8(has)
	if h := resp.Health; h != nil {
		w.U64(h.UptimeMS)
		w.U64(uint64(h.InflightBuilds))
		w.U64(h.WarmLoaded)
		w.Bool(h.Draining)
		w.Bool(h.Degraded)
		w.Str(h.DegradedReason)
		w.U64(uint64(h.QueueDepth))
		w.Bool(h.UpgradeActive)
		w.Str(h.UpgradeEpoch)
		w.U64(uint64(h.UpgradeCanaryPct))
		w.Bool(h.UpgradeRollingBack)
		w.Str(h.UpgradeVerdict)
		w.U64(uint64(h.MeshPeers))
		w.U64(uint64(h.MeshPeersUp))
		w.U64(uint64(h.MeshShards))
	}
	if resp.Refusal != nil {
		refusal.Append(w, resp.Refusal)
	}
	if m := resp.Mesh; m != nil {
		w.Bool(m.Found)
		w.U64(m.Size)
		w.U64(m.Gen)
		putStrs(w, m.Want)
	}
}

// decodeResponse overwrites every field of *resp with the response
// encoded in p.
func decodeResponse(p []byte, resp *Response) error {
	r := lebin.NewReader(p)
	*resp = Response{
		Err:      r.Str(),
		Text:     r.Str(),
		Paths:    getStrs(r),
		Blob:     getBlob(r),
		Flag:     r.Bool(),
		ExitCode: r.U64(),
		Output:   r.Str(),
		User:     r.U64(),
		Sys:      r.U64(),
		Server:   r.U64(),
		Wait:     r.U64(),
		Index:    int(r.U64()),
		Final:    r.Bool(),
	}
	has := getPresence(r, responsePresence)
	if has&hasHealth != 0 {
		resp.Health = &HealthInfo{
			UptimeMS:           r.U64(),
			InflightBuilds:     int(r.U64()),
			WarmLoaded:         r.U64(),
			Draining:           r.Bool(),
			Degraded:           r.Bool(),
			DegradedReason:     r.Str(),
			QueueDepth:         int(r.U64()),
			UpgradeActive:      r.Bool(),
			UpgradeEpoch:       r.Str(),
			UpgradeCanaryPct:   int(r.U64()),
			UpgradeRollingBack: r.Bool(),
			UpgradeVerdict:     r.Str(),
			MeshPeers:          int(r.U64()),
			MeshPeersUp:        int(r.U64()),
			MeshShards:         int(r.U64()),
		}
	}
	if has&hasRefusal != 0 {
		resp.Refusal = refusal.Read(r)
	}
	if has&hasMesh != 0 {
		resp.Mesh = &MeshInfo{
			Found: r.Bool(),
			Size:  r.U64(),
			Gen:   r.U64(),
			Want:  getStrs(r),
		}
	}
	return finish(r)
}

func putStrs(w *lebin.Writer, ss []string) {
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.Str(s)
	}
}

// getStrs reads a string list; an empty one is nil.
func getStrs(r *lebin.Reader) []string {
	n := r.Count(minStrBytes)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Str()
	}
	return ss
}

// getBlob reads a blob into a fresh slice; an empty one is nil.
func getBlob(r *lebin.Reader) []byte {
	if p := r.Blob(); len(p) > 0 {
		return p
	}
	return nil
}

// getOp reads an op name, interned when it is a known one.
func getOp(r *lebin.Reader) Op {
	raw := r.Raw(int(r.U32()))
	if op, ok := opByName[string(raw)]; ok {
		return op
	}
	return Op(raw)
}

// getPresence reads a presence byte, refusing bits outside allowed.
func getPresence(r *lebin.Reader, allowed uint8) uint8 {
	has := r.U8()
	if has&^allowed != 0 {
		r.Fail(fmt.Errorf("unknown presence bits %#x", has&^allowed))
		return 0
	}
	return has
}

// finish refuses trailing bytes and returns the first failure.
func finish(r *lebin.Reader) error {
	if r.Err() == nil && r.Rest() != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Rest()))
	}
	return r.Err()
}
