package ipc

// The wire's two framings.  The hello exchange has its own: a 4-byte
// big-endian payload length, then one hello (codec.go) of at most
// maxHelloFrame bytes.  It never changes, so a peer of any version is
// read whole — a version-5 or older peer's gob-encoded hello too — and
// refused rather than misread as a tagged header and waited on.
//
// Tagged frames carry everything after the hello exchange, on
// multiplexed, pipelined connections.
//
// A frame is a 12-byte header — 4-byte big-endian payload length,
// 8-byte big-endian tag — followed by the payload: one message in the
// codec of codec.go.  The tag is assigned by the client (monotonically
// increasing per connection) and echoed by the server on the
// completion, so one connection carries any number of in-flight calls
// and responses return in whatever order the server finishes them.
//
// Every frame stands alone: the codec keeps no state between frames,
// so a frame decodes without the ones before it.  The framing itself
// is allocation-free in steady state — the send buffer is reused with
// a 12-byte header hole reserved at the front (one conn.Write per
// frame, no copy), the receive buffer is reused and grown to the
// high-water mark, and header scratch lives in the caller's frame —
// pinned by TestFramedHotPathAllocFree.  A whole call allocates only
// its decoded values and its completion channel
// (TestWireBudgetAllocsPerCall).
//
// Each side reads tagged frames through one readBufSize bufio.Reader
// created after the hello, never earlier: the hello exchange is
// read with exact-length reads straight off the connection, so no byte
// of it can be stranded in a buffer.  A frame then costs at most one
// read on the connection, and frames that arrived together share one.

import (
	"encoding/binary"
	"fmt"
	"io"

	"omos/internal/lebin"
)

// hdrSize is the frame header: 4-byte payload length + 8-byte tag.
const hdrSize = 12

// readBufSize is each direction's receive buffer: several control
// frames (~100 bytes each) per fill; what a large payload has left
// once the buffer is drained is read straight into the frame buffer.
const readBufSize = 4096

// sendBuf assembles one outgoing frame: the codec appends the payload
// after a reserved header hole, seal stamps the header in place, and
// the whole frame goes out in a single Write.  The backing array is
// reused across frames (capacity is retained).
type sendBuf struct{ b lebin.Writer }

// reset prepares the buffer for a new frame, keeping capacity.
func (s *sendBuf) reset() {
	if cap(s.b) < hdrSize {
		s.b = make(lebin.Writer, hdrSize, 512)
	}
	s.b = s.b[:hdrSize]
}

// seal stamps the header (payload length + tag) in place; the frame
// is then s.b, ready for one Write to the connection.  A payload past
// maxFrame is refused before any byte of it is written.
func (s *sendBuf) seal(tag uint64) error {
	n := len(s.b) - hdrSize
	if n > maxFrame {
		return fmt.Errorf("ipc: frame too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(s.b[0:4], uint32(n))
	binary.BigEndian.PutUint64(s.b[4:12], tag)
	return nil
}

// tagBytes exposes the sealed header's tag field — the deterministic
// corruption point for the fault framework's ipc.write corrupt rules
// (flipping tag bits exercises the receiver's tag-mismatch defense
// without desynchronizing the framing, which damaged length bytes
// would).
func (s *sendBuf) tagBytes() []byte { return s.b[4:12] }

// writeHello sends one hello in the gate's framing, in one Write.
func writeHello(w io.Writer, h *hello) error {
	b := make(lebin.Writer, 4, 64)
	encodeHello(&b, h)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// readHello reads one hello frame and decodes it into *h.  A frame
// read whole whose payload is not a hello of this version is a
// "malformed" *FrameError; h.Version then holds the version the peer
// speaks, when its magic was right.
func readHello(r io.Reader, h *hello) error {
	var hdr [4]byte
	var buf []byte
	p, err := readFrame(r, hdr[:], maxHelloFrame, &buf)
	if err == nil {
		if err = decodeHello(p, h); err != nil {
			err = &FrameError{Reason: "malformed", Size: uint32(len(p)), Err: err}
		}
	}
	return err
}

// readTagged reads one tagged frame into hdr and *buf (see readFrame).
func readTagged(r io.Reader, hdr *[hdrSize]byte, buf *[]byte) (tag uint64, payload []byte, err error) {
	payload, err = readFrame(r, hdr[:], maxFrame, buf)
	return binary.BigEndian.Uint64(hdr[4:]), payload, err
}

// readFrame reads one frame of either framing with exact-length reads:
// the header into hdr, whose first four bytes are the big-endian
// payload length, then at most limit payload bytes into *buf (reused
// and grown as needed; the returned slice aliases it — valid only
// until the next call).  A clean close before the frame is io.EOF;
// frame damage is a *FrameError.
func readFrame(r io.Reader, hdr []byte, limit uint32, buf *[]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, &FrameError{Reason: "truncated", Err: err}
		}
		return nil, err // io.EOF (clean close) or transport error
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > limit {
		return nil, &FrameError{Reason: "oversized", Size: n}
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, &FrameError{Reason: "truncated", Size: n, Err: err}
	}
	return *buf, nil
}
