package ipc

// Tagged frames for multiplexed, pipelined connections: the framing of
// everything after the hello exchange.
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

// payloadLen reports the bytes accumulated past the header.
func (s *sendBuf) payloadLen() int { return len(s.b) - hdrSize }

// seal stamps the header (payload length + tag) in place; the frame
// is then s.b, ready for one Write to the connection.
func (s *sendBuf) seal(tag uint64) {
	binary.BigEndian.PutUint32(s.b[0:4], uint32(len(s.b)-hdrSize))
	binary.BigEndian.PutUint64(s.b[4:12], tag)
}

// tagBytes exposes the sealed header's tag field — the deterministic
// corruption point for the fault framework's ipc.write corrupt rules
// (flipping tag bits exercises the receiver's tag-mismatch defense
// without desynchronizing the framing, which damaged length bytes
// would).
func (s *sendBuf) tagBytes() []byte { return s.b[4:12] }

// readTagged reads one frame: header into hdr, payload into *buf
// (reused and grown as needed; the returned slice aliases it — valid
// only until the next call).  Frame damage surfaces as *FrameError
// exactly like ReadFrame; a clean close between frames is io.EOF.
func readTagged(r io.Reader, hdr *[hdrSize]byte, buf *[]byte) (tag uint64, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, &FrameError{Reason: "truncated", Err: err}
		}
		return 0, nil, err // io.EOF (clean close) or transport error
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	tag = binary.BigEndian.Uint64(hdr[4:12])
	if n > maxFrame {
		return tag, nil, &FrameError{Reason: "oversized", Size: n}
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		return tag, nil, &FrameError{Reason: "truncated", Size: n, Err: err}
	}
	return tag, *buf, nil
}
