package ipc

// Tests of the tagged-wire message codec: every field of every message
// type round-trips (found by reflection, so a field added to a type but
// not to the codec fails here), decoded values own their bytes, empty
// lists decode as nil, known ops are interned, damage is refused, and
// the bytes themselves are pinned.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"omos/internal/lebin"
)

// fill sets every exported field reachable from v to a distinct
// non-zero value (*n numbers them), allocating through nil pointers.
func fill(t testing.TB, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
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
	for _, c := range []struct {
		name   string
		b      []byte
		decode func([]byte) error
	}{
		{"request", encodeMessage(req), func(b []byte) error { return decodeRequest(b, new(Request)) }},
		{"response", encodeMessage(resp), func(b []byte) error { return decodeResponse(b, new(Response)) }},
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

// TestGoldenDigest pins the wire bytes: the SHA-256 of a fully set
// Request and Response and of one sealed tagged frame.  A digest change
// is a wire change — bump protoVersionText, do not just paste the new
// digest.
func TestGoldenDigest(t *testing.T) {
	req, resp := fullMessages(t)
	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"encodeRequest", encodeMessage(req), "84f95227f2627fa3dc69d3ed3495336108be7295683ce286b9c4fa36d0fb6418"},
		{"encodeResponse", encodeMessage(resp), "1324f97d4e14b2a9651c5d2dce5542062715a470c18c95695f79abfc17ef07b3"},
		{"tagged frame", encodeFrame(0x0102030405060708, &Request{Op: OpList, Path: "/lib"}), "c6652557abe518436781d00fc6589abb26e1c1a72371c40e2b58d905ae317bbe"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest changed (%d bytes):\n got %s\nwant %s", c.name, len(c.enc), got, c.want)
		}
	}
}
