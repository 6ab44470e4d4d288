package ipc

// Fuzz targets for the v2 decoder: the framing layer alone through the
// buffered reader it runs behind, and the whole server side of an
// upgraded connection fed arbitrary bytes.  Seeds are the damage the
// unit tests inject by hand (mux_test.go, fault_test.go): truncation,
// an oversized length, a payload gob cannot parse, a value of the wrong
// type, a damaged tag.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// v2Stream encodes values as consecutive tagged frames (tags 1, 2, …)
// on one gob stream, as a v2 peer would send them.
func v2Stream(t testing.TB, values ...interface{}) []byte {
	t.Helper()
	var sbuf sendBuf
	enc := gob.NewEncoder(&sbuf)
	var out []byte
	for i, v := range values {
		sbuf.reset()
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		sbuf.seal(uint64(i + 1))
		out = append(out, sbuf.b...)
	}
	return out
}

// addStreamSeeds seeds f with well-formed v2 streams and each kind of
// damage the decoder must survive.
func addStreamSeeds(f *testing.F) {
	ping := v2Stream(f, &Request{Op: OpPing})
	several := v2Stream(f,
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
	f.Add(append(garbage, "notagob!"...))
	f.Add(v2Stream(f, &Response{Text: "a response where a request belongs", Final: true}))
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
		if err := WriteFrame(cli, &Request{Op: OpHello, Text: protoVersionText}); err != nil {
			t.Fatal(err)
		}
		var ack Response
		if err := ReadFrame(cli, &ack); err != nil || !ack.Flag {
			t.Fatalf("hello: %v %+v", err, ack)
		}
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
