// Package wire is the cluster's node-to-node binary protocol: a
// length-prefixed, CRC-checked, versioned frame stream that replaces JSON
// on the router↔node path. Every frame is
//
//	uint32 LE  n        — length of what follows before the checksum
//	uint8      type     — frame type (THello, TQuery, TRowChunk, ...)
//	n-1 bytes  payload  — the message body, encoded with internal/binio
//	uint32 LE  crc      — CRC-32C (Castagnoli) over type+payload
//
// so a corrupted or truncated stream surfaces as an error from ReadFrame,
// never as a panic or a giant allocation: n is bounded by MaxFrame before
// anything is allocated, and payload decoding inherits binio's strict
// bounds checking (declared lengths are clamped by the bytes actually
// present).
//
// A connection opens with a handshake — the client sends Hello (magic +
// protocol version), the server answers Welcome (version, row
// dimensionality, global shard count) — after which frames flow in both
// directions: requests and Cancel from the client, streamed RowChunk /
// ShardEOF / AggPart / acks / Error from the server. Writes are
// frame-atomic (one mutex per connection), so a response stream and an
// asynchronous Cancel can share the wire safely.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"github.com/coax-index/coax/internal/obs"
)

const (
	// ProtocolVersion is the wire format version carried in the handshake;
	// both sides must agree exactly (there is no cross-version negotiation
	// yet — a mismatch is a handshake error, not silent misdecoding).
	// Version 3 added StatsRes.BuildSeconds.
	ProtocolVersion = 3

	// Magic opens every Hello payload ("COAX" little-endian), so a stray
	// HTTP client or port scanner is rejected at the first frame.
	Magic = 0x58414F43

	// MaxFrame bounds a frame's length field. ReadFrame rejects anything
	// larger before allocating, so a corrupt length cannot drive an
	// oversized allocation.
	MaxFrame = 8 << 20
)

// Frame types. Handshake and control frames share the low block; request
// and response frames are grouped by plane.
const (
	THello    byte = 0x01
	TWelcome  byte = 0x02
	TError    byte = 0x03
	TCancel   byte = 0x04
	TPing     byte = 0x05
	TPong     byte = 0x06
	TQuery    byte = 0x10
	TRowChunk byte = 0x11
	TShardEOF byte = 0x12
	TDone     byte = 0x13
	TAgg      byte = 0x20
	TAggPart  byte = 0x21
	TMutate   byte = 0x30
	TMutAck   byte = 0x31
	TStats    byte = 0x40
	TStatsRes byte = 0x41
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Conn frames a bidirectional byte stream. Reads must come from a single
// goroutine; writes are internally serialized, so any number of goroutines
// may send (the response stream and an async Cancel share one connection).
type Conn struct {
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
	wrr error // sticky write error

	maxFrame int
}

// NewConn frames rw. The caller keeps ownership of the underlying
// connection (deadlines, Close).
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		br:       bufio.NewReaderSize(rw, 64<<10),
		bw:       bufio.NewWriterSize(rw, 64<<10),
		maxFrame: MaxFrame,
	}
}

// WriteFrame sends one frame and flushes it. Safe for concurrent use; the
// first write error sticks and is returned by every subsequent call.
func (c *Conn) WriteFrame(t byte, payload []byte) error {
	n := len(payload) + 1
	if n > c.maxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds MaxFrame %d", len(payload), c.maxFrame)
	}
	crc := crc32.Update(crc32.Checksum([]byte{t}, castagnoli), castagnoli, payload)

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wrr != nil {
		return c.wrr
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = t
	_, err := c.bw.Write(hdr[:])
	if err == nil {
		_, err = c.bw.Write(payload)
	}
	if err == nil {
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc)
		_, err = c.bw.Write(tail[:])
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.wrr = err
		return err
	}
	obs.WireBytesSent.Add(int64(n) + 8)
	obs.WireFramesSent.Inc()
	return nil
}

// ReadFrame reads one frame, verifying length bounds and the checksum. A
// short read surfaces as io.ErrUnexpectedEOF (io.EOF only at a clean frame
// boundary); a checksum or bounds failure is a *FrameError.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > uint32(c.maxFrame) {
		return 0, nil, &FrameError{Reason: fmt.Sprintf("frame length %d out of range [1,%d]", n, c.maxFrame)}
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(c.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	want := binary.LittleEndian.Uint32(body[n:])
	if got := crc32.Checksum(body[:n], castagnoli); got != want {
		return 0, nil, &FrameError{Reason: fmt.Sprintf("checksum mismatch: got %#x want %#x", got, want)}
	}
	obs.WireBytesRecv.Add(int64(n) + 8)
	obs.WireFramesRecv.Inc()
	return body[0], body[1:n], nil
}

// FrameError reports a malformed frame (bad length, bad checksum, unknown
// type, or an undecodable payload). It is a protocol-level failure: the
// stream is desynchronized and the connection should be dropped.
type FrameError struct {
	Reason string
}

func (e *FrameError) Error() string { return "wire: " + e.Reason }

// Send encodes and writes one message.
func (c *Conn) Send(m Message) error {
	return c.WriteFrame(m.wireType(), appendMessage(nil, m))
}

// Recv reads and decodes one message.
func (c *Conn) Recv() (Message, error) {
	t, payload, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	return Decode(t, payload)
}
