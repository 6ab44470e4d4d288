package ipc

// Tests of the tagged-wire message codec: every field of every message
// type round-trips (found by reflection, so a field added to a type but
// not to the codec fails here), decoded values own their bytes, empty
// lists decode as nil, known ops are interned, damage is refused, and
// the bytes themselves are pinned.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"omos/internal/lebin"
	"omos/internal/refusal"
)

// fill sets every exported field reachable from v to a distinct
// non-zero value (*n numbers them), allocating through nil pointers.
func fill(t testing.TB, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Interface:
		if v.Type() != reflect.TypeOf((*refusal.Error)(nil)).Elem() {
			t.Fatalf("fill: no rule for %s", v.Type())
		}
		// One refusal stands for all four: TestRefusalRoundTrip
		// covers each.
		r := &refusal.UpgradeAbortedError{}
		fill(t, reflect.ValueOf(r).Elem(), n)
		v.Set(reflect.ValueOf(r))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(*n)) // negative: the sign must survive
	case reflect.Uint64:
		v.SetUint(uint64(*n)<<56 | uint64(*n)) // the high byte must survive
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.String:
			v.Set(reflect.ValueOf([]string{fmt.Sprintf("a%d", *n), fmt.Sprintf("b%d", *n)}))
		case reflect.Uint8:
			v.SetBytes([]byte{byte(*n), 0, byte(*n) + 1})
		default:
			t.Fatalf("fill: no rule for %s", v.Type())
		}
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// fullMessages returns a Request and a Response with every field set,
// every nested payload present.
func fullMessages(t testing.TB) (*Request, *Response) {
	var req Request
	var resp Response
	n := 0
	fill(t, reflect.ValueOf(&req).Elem(), &n)
	fill(t, reflect.ValueOf(&resp).Elem(), &n)
	return &req, &resp
}

func encodeMessage(msg interface{}) []byte { return encodeFrame(0, msg)[hdrSize:] }

func TestCodecFieldCoverage(t *testing.T) {
	req, resp := fullMessages(t)
	reqBytes, respBytes := encodeMessage(req), encodeMessage(resp)
	var gotReq Request
	if err := decodeRequest(reqBytes, &gotReq); err != nil {
		t.Fatal(err)
	}
	var gotResp Response
	if err := decodeResponse(respBytes, &gotResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotReq, req) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", gotReq, *req)
	}
	if !reflect.DeepEqual(&gotResp, resp) {
		t.Fatalf("response round trip:\n got %+v\nwant %+v", gotResp, *resp)
	}
	// The payload is the caller's reused receive buffer: nothing decoded
	// may still point into it.
	for _, b := range [][]byte{reqBytes, respBytes} {
		for i := range b {
			b[i] = 0xEE
		}
	}
	if !reflect.DeepEqual(&gotReq, req) || !reflect.DeepEqual(&gotResp, resp) {
		t.Fatal("a decoded value changed when the payload buffer was overwritten")
	}
}

func TestCodecEmptyListsDecodeNil(t *testing.T) {
	var req Request
	if err := decodeRequest(encodeMessage(&Request{Op: OpRun, Args: []string{}, Blob: []byte{},
		Mesh: &MeshReq{Blob: []byte{}, Keys: []string{}}}), &req); err != nil {
		t.Fatal(err)
	}
	if req.Args != nil || req.Blob != nil || req.Mesh.Blob != nil || req.Mesh.Keys != nil {
		t.Fatalf("empty request lists decoded non-nil: %#v %#v", req, *req.Mesh)
	}
	var resp Response
	if err := decodeResponse(encodeMessage(&Response{Paths: []string{}, Blob: []byte{},
		Mesh: &MeshInfo{Want: []string{}}}), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Paths != nil || resp.Blob != nil || resp.Mesh.Want != nil {
		t.Fatalf("empty response lists decoded non-nil: %#v %#v", resp, *resp.Mesh)
	}
}

func TestCodecOps(t *testing.T) {
	// A known op decodes to the constant's own string, allocating
	// nothing; an unknown one round-trips as itself.
	for name, op := range opByName {
		b := encodeMessage(&Request{Op: op})
		var req Request
		if allocs := testing.AllocsPerRun(100, func() {
			if err := decodeRequest(b, &req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("decoding a bare %s request allocates %.0f times, want 0", name, allocs)
		}
		if req.Op != op || unsafe.StringData(string(req.Op)) != unsafe.StringData(string(op)) {
			t.Errorf("%s decoded as %q, not interned", name, req.Op)
		}
	}
	var req Request
	if err := decodeRequest(encodeMessage(&Request{Op: "no-such-op"}), &req); err != nil || req.Op != "no-such-op" {
		t.Fatalf("unknown op: %v %q", err, req.Op)
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	req, resp := fullMessages(t)
	hi, _ := goldenHellos()
	for _, c := range []struct {
		name   string
		b      []byte
		decode func([]byte) error
	}{
		{"request", encodeMessage(req), func(b []byte) error { return decodeRequest(b, new(Request)) }},
		{"response", encodeMessage(resp), func(b []byte) error { return decodeResponse(b, new(Response)) }},
		{"hello", helloFrame(hi)[4:], func(b []byte) error { return decodeHello(b, new(hello)) }},
	} {
		for i := 0; i < len(c.b); i++ {
			if c.decode(c.b[:i]) == nil {
				t.Fatalf("%s: %d-byte prefix of %d accepted", c.name, i, len(c.b))
			}
		}
		if c.decode(append(append([]byte{}, c.b...), 0)) == nil {
			t.Fatalf("%s: trailing byte accepted", c.name)
		}
	}
	// A bool byte past 1, and a presence bit with no payload defined.
	var w lebin.Writer
	encodeRequest(&w, &Request{Op: OpRemove, AllowRebind: true})
	bad := append([]byte{}, w...)
	bad[len(bad)-2] = 2
	if err := decodeRequest(bad, new(Request)); err == nil {
		t.Fatal("bool byte 2 accepted")
	}
	bad = append([]byte{}, w...)
	bad[len(bad)-1] = hasHealth
	if err := decodeRequest(bad, new(Request)); err == nil {
		t.Fatal("a request presence bit for a response payload accepted")
	}
}

// goldenHellos are a client's hello with its mesh nonce and proof, and
// a server's ack with its challenge, every field set.
func goldenHellos() (hi, ack *hello) {
	return &hello{Version: protoVersion, Text: "0123456789abcdef0123456789abcdef", Proof: []byte("a 32-byte HMAC-SHA256 mesh proof")},
		&hello{Version: protoVersion, Ack: true, Text: "fedcba9876543210fedcba9876543210"}
}

// helloFrame seals h in the gate's framing, as a peer sends it.
func helloFrame(h *hello) []byte {
	var b bytes.Buffer
	writeHello(&b, h)
	return b.Bytes()
}

// TestGoldenDigest pins the wire bytes: the SHA-256 of a fully set
// Request and Response, of one sealed tagged frame, and of a hello and
// an ack in their framing.  A digest change is a wire change — bump
// protoVersion, do not just paste the new digest.
func TestGoldenDigest(t *testing.T) {
	req, resp := fullMessages(t)
	hi, ack := goldenHellos()
	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"encodeRequest", encodeMessage(req), "cfaa87c62733ebec95735e931586616755d091c0a4afff20434792bbd9ffa3c3"},
		{"encodeResponse", encodeMessage(resp), "f036ae222858232460eb2ce18449ab4a4c7b95f4e1d46f4dd20c1e7c08c66f7e"},
		{"tagged frame", encodeFrame(0x0102030405060708, &Request{Op: OpList, Path: "/lib"}), "c6652557abe518436781d00fc6589abb26e1c1a72371c40e2b58d905ae317bbe"},
		{"hello", helloFrame(hi), "1910f178b3a39715b675e4642e76bc1b846a35526a639c0f5cad9207af429165"},
		{"ack", helloFrame(ack), "c16c81f91dde0c815fe2da84fa37db84dcfee8058c14ae652f5dc8854bb3fcf3"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest changed (%d bytes):\n got %s\nwant %s", c.name, len(c.enc), got, c.want)
		}
	}
}

// TestHelloFixedOffsets: a hello, an ack and a refusal all open with
// the magic at offset 0 and the version at offset 4 — the two fields
// every version reads, whatever follows them.
func TestHelloFixedOffsets(t *testing.T) {
	hi, ack := goldenHellos()
	refused := &hello{Version: protoVersion, Text: helloRequiredMsg}
	for name, h := range map[string]*hello{"hello": hi, "ack": ack, "refusal": refused} {
		p := helloFrame(h)[4:]
		if string(p[:4]) != helloMagic || binary.LittleEndian.Uint32(p[4:8]) != protoVersion {
			t.Errorf("%s opens with %x, want the magic %q and then version %d", name, p[:8], helloMagic, protoVersion)
		}
	}
}

// refusals returns one of each refusal type, every field set.
func refusals() []refusal.Error {
	return []refusal.Error{
		&refusal.OverloadError{Reason: "queue full", RetryAfter: 250 * time.Millisecond},
		&refusal.RebindError{Mutation: "define", Path: "/lib/l", Program: "/bin/t", Symbol: "triple", Definer: "/lib/l"},
		&refusal.PinViolationError{Image: "/bin/t", Lib: "/lib/l", Field: "checksum", Want: "ab12", Got: "cd34"},
		&refusal.UpgradeAbortedError{Epoch: "up1.7", Verdict: "cohort failure rate rose", Auto: true},
	}
}

// TestRefusalRoundTrip: a refusal a handler wrapped crosses applyError,
// the codec and wireError and arrives as an equal value of its own
// type; a kind byte no refusal has is refused.
func TestRefusalRoundTrip(t *testing.T) {
	for _, want := range refusals() {
		var resp Response
		applyError(&resp, fmt.Errorf("run /bin/t: %w", want))
		b := encodeMessage(&resp)
		var got Response
		if err := decodeResponse(b, &got); err != nil {
			t.Fatalf("%T: %v", want, err)
		}
		err := wireError(&got)
		target := reflect.New(reflect.TypeOf(want))
		if !errors.As(err, target.Interface()) || !reflect.DeepEqual(target.Elem().Interface(), want) {
			t.Fatalf("%#v arrived as %v (%T)", want, err, err)
		}

		// The refusal is the message's last payload: its kind byte opens
		// the tail.
		var w lebin.Writer
		refusal.Append(&w, want)
		kind := len(b) - len(w)
		for _, k := range []byte{0, 5, 0xFF} {
			bad := append([]byte{}, b...)
			bad[kind] = k
			if err := decodeResponse(bad, new(Response)); err == nil {
				t.Fatalf("%T: refusal kind %d accepted", want, k)
			}
		}
	}
}
