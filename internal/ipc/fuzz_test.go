package ipc

// Fuzz targets for the wire: the hello gate's frame reader and decoder,
// the tagged framing layer alone through the buffered reader it runs
// behind, the message decoders alone, and the whole server side of an
// upgraded connection fed arbitrary bytes.  Seeds are the damage the
// unit tests inject by hand (mux_test.go, fault_test.go,
// codec_test.go): truncation, an oversized length, a payload that does
// not decode, a message of the wrong kind or version, a damaged tag.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"omos/internal/lebin"
)

// encodeFrame seals one message (a *Request or a *Response) as a
// tagged frame, as a peer sends it.
func encodeFrame(tag uint64, msg interface{}) []byte {
	var sbuf sendBuf
	sbuf.reset()
	switch m := msg.(type) {
	case *Request:
		encodeRequest(&sbuf.b, m)
	case *Response:
		encodeResponse(&sbuf.b, m)
	default:
		panic("encodeFrame: not a message")
	}
	sbuf.seal(tag)
	return sbuf.b
}

// exchangeHello sends one hello frame and returns the server's answer.
func exchangeHello(t testing.TB, conn net.Conn, h *hello) hello {
	t.Helper()
	if err := writeHello(conn, h); err != nil {
		t.Fatal(err)
	}
	var ack hello
	if err := readHello(conn, &ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// greetRaw completes a secretless hello exchange on a raw connection,
// as the client does before its first tagged frame.
func greetRaw(t testing.TB, conn net.Conn) {
	t.Helper()
	if ack := exchangeHello(t, conn, &hello{Version: protoVersion}); !ack.Ack {
		t.Fatalf("hello answered %+v", ack)
	}
}

// taggedStream encodes messages as consecutive tagged frames (tags 1,
// 2, …).
func taggedStream(msgs ...interface{}) []byte {
	var out []byte
	for i, m := range msgs {
		out = append(out, encodeFrame(uint64(i+1), m)...)
	}
	return out
}

// addStreamSeeds seeds f with well-formed tagged streams and each kind
// of damage the decoder must survive.
func addStreamSeeds(f *testing.F) {
	ping := taggedStream(&Request{Op: OpPing})
	several := taggedStream(
		&Request{Op: OpList, Path: "/"},
		&Request{Op: OpRun, Path: "/bin/x", Args: []string{"a", "b"}},
		&Request{Op: OpPutObject, Path: "/o", Blob: bytes.Repeat([]byte{0xAB}, 2*readBufSize)},
		&Request{Op: OpInstantiateBatch, Args: []string{"/bin/a", "/bin/b"}},
		&Request{Op: OpMeshFetch},
		&Request{Op: "no-such-op"})
	f.Add([]byte{})
	f.Add(ping)
	f.Add(several)
	f.Add(ping[:hdrSize/2])                                        // truncated header
	f.Add(ping[:len(ping)-2])                                      // truncated payload
	f.Add(append(append([]byte{}, several...), ping[:hdrSize]...)) // header, then nothing
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1, 0xDE, 0xAD})
	garbage := make([]byte, hdrSize, hdrSize+8)
	binary.BigEndian.PutUint32(garbage, 8)
	f.Add(append(garbage, "garbage!"...))
	f.Add(taggedStream(&Response{Text: "a response where a request belongs", Final: true}))
	badTag := append([]byte{}, ping...)
	badTag[5] ^= 0x40
	f.Add(badTag)
}

func FuzzReadTagged(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), readBufSize)
		var hdr [hdrSize]byte
		var buf []byte
		rest := data
		for {
			tag, payload, err := readTagged(br, &hdr, &buf)
			if cap(buf) > maxFrame {
				t.Fatalf("frame buffer grew to %d bytes, past maxFrame", cap(buf))
			}
			if err == io.EOF {
				if len(rest) != 0 {
					t.Fatalf("clean EOF with %d bytes unread", len(rest))
				}
				return
			}
			if err != nil {
				var fe *FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("untyped error %T: %v", err, err)
				}
				return
			}
			// The frame must be exactly what the bytes say.
			n := int(binary.BigEndian.Uint32(rest[:4]))
			if tag != binary.BigEndian.Uint64(rest[4:hdrSize]) || !bytes.Equal(payload, rest[hdrSize:hdrSize+n]) {
				t.Fatalf("frame at offset %d misread: tag %d, %d payload bytes", len(data)-len(rest), tag, len(payload))
			}
			rest = rest[hdrSize+n:]
		}
	})
}

func FuzzMuxStream(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// One handler at a time: fakeBackend's maps are unguarded.
		srv := NewServer(newFakeBackend())
		srv.HandlerPool = 1
		cli, sv := net.Pipe()
		defer cli.Close()
		srv.connWG.Add(1) // what Serve does before serveConn
		served := make(chan struct{})
		go func() { srv.serveConn(sv); close(served) }()

		cli.SetDeadline(time.Now().Add(10 * time.Second))
		greetRaw(t, cli)
		// Discard whatever the stream's well-formed requests are
		// answered with, until the server hangs up.
		go io.Copy(io.Discard, cli)
		cli.Write(data) // fails midway when the server drops a damaged stream
		cli.Close()

		// Damage or end of input, the connection must end — cleanly, not
		// through the recover that would hide a decoder panic.
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("connection still being served after its peer closed")
		}
		if n := srv.Recovered(); n != 0 {
			t.Fatalf("%d panics recovered while decoding", n)
		}
	})
}

// FuzzHello feeds the gate's reader a connection's first bytes, as the
// server reads them before the peer has proved anything.  It may not
// panic, allocate past a small bound whatever length the bytes claim,
// or fail untyped, and a frame it accepts is exactly the frame the
// writer makes of the decoded hello.
func FuzzHello(f *testing.F) {
	hi, ack := goldenHellos()
	for _, h := range []*hello{hi, ack, {Version: protoVersion, Text: helloRequiredMsg}} {
		full := helloFrame(h)
		f.Add(full)
		f.Add(full[:len(full)-1])
	}
	for _, frame := range gateFixtures(f) {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'O', 'M', 'O', 'S'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h hello
		var err error
		if got := allocatedBy(func() { err = readHello(bytes.NewReader(data), &h) }); got > 64<<10 {
			t.Fatalf("%d input bytes made readHello allocate %d", len(data), got)
		}
		var fe *FrameError
		if err != nil {
			if err != io.EOF && !errors.As(err, &fe) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if h.Version != protoVersion {
			t.Fatalf("accepted a version %d hello", h.Version)
		}
		if frame := helloFrame(&h); !bytes.HasPrefix(data, frame) {
			t.Fatalf("hello %+v re-encodes to %x, read from %x", h, frame, data)
		}
	})
}

// FuzzDecodeMessage feeds both message decoders arbitrary payloads.
// Neither may panic or allocate out of proportion to its input (the
// bound FuzzStoreDecodeHead holds the store to), and a payload either
// decoder accepts must re-encode to itself: the encoding is canonical,
// so an encoder and decoder that disagree on a field are caught here.
func FuzzDecodeMessage(f *testing.F) {
	fullReq, fullResp := fullMessages(f)
	for _, p := range [][]byte{
		nil,
		encodeMessage(&Request{Op: OpPing}),
		encodeMessage(&Request{Op: OpList, Path: "/lib"}),
		encodeMessage(fullReq),
		encodeMessage(&Response{Paths: []string{"/lib/libc"}, Final: true}),
		encodeMessage(fullResp),
	} {
		f.Add(p)
	}
	for _, r := range refusals() {
		f.Add(encodeMessage(&Response{Err: r.Error(), Refusal: r}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 4*uint64(len(data)) + 64<<10
		var req Request
		var reqErr error
		if got := allocatedBy(func() { reqErr = decodeRequest(data, &req) }); got > limit {
			t.Fatalf("%d input bytes made decodeRequest allocate %d", len(data), got)
		}
		if reqErr == nil {
			var w lebin.Writer
			encodeRequest(&w, &req)
			if !bytes.Equal(w, data) {
				t.Fatalf("request %+v re-encodes to %x, decoded from %x", req, []byte(w), data)
			}
		}
		var resp Response
		var respErr error
		if got := allocatedBy(func() { respErr = decodeResponse(data, &resp) }); got > limit {
			t.Fatalf("%d input bytes made decodeResponse allocate %d", len(data), got)
		}
		if respErr == nil {
			var w lebin.Writer
			encodeResponse(&w, &resp)
			if !bytes.Equal(w, data) {
				t.Fatalf("response %+v re-encodes to %x, decoded from %x", resp, []byte(w), data)
			}
		}
	})
}

// allocatedBy returns the bytes f allocated (process-wide).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
