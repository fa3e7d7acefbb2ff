package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
)

// duplex is an in-memory bidirectional stream for handshake tests.
func duplex(t *testing.T) (client, server net.Conn) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func allMessages() []Message {
	return []Message{
		&Hello{Magic: Magic, Version: ProtocolVersion},
		&Welcome{Version: 1, Dims: 4, Shards: 16, Rows: 123456, Col: 2, Cuts: []float64{-1.5, 0, 7}},
		&Error{ID: 7, Code: CodeOverloaded, RetryAfterMillis: 250, Msg: "drain"},
		&Cancel{ID: 42},
		&Ping{ID: 1},
		&Pong{ID: 1},
		&Query{ID: 9, Shards: []int{0, 3, 5}, Min: []float64{0, math.Inf(-1)}, Max: []float64{10, math.Inf(1)}, Keep: 1000, Limit: 100},
		&RowChunk{ID: 9, Shard: 3, Rows: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		&ShardEOF{ID: 9, Shard: 3, Rows: 2, Complete: true},
		&Done{ID: 9, Complete: true},
		&Agg{ID: 11, Shards: []int{1}, Min: []float64{0}, Max: []float64{1}, Op: 2, Col: 1, Group: -1},
		&AggPart{ID: 11, Shard: 1, Grouped: true, Complete: true, Cells: []AggCell{
			{Key: 1, Count: 3, Sum: 6, Min: 1, Max: 3},
			{Key: 2, Count: 1, Sum: 9, Min: 9, Max: 9},
		}},
		&Mutate{ID: 13, Op: MutUpdate, Shard: 2, Row: []float64{1, 2}, New: []float64{3, 4}},
		&MutAck{ID: 13, Rows: 999},
		&Stats{ID: 15},
		&StatsRes{ID: 15, Rows: 1000, Hosted: []int{0, 2}, ShardRows: []int64{400, 600}, MemoryOverhead: 51624, BuildSeconds: 1.5},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		payload := appendMessage(nil, m)
		got, err := Decode(m.wireType(), payload)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round trip mismatch:\n sent %+v\n got  %+v", m, m, got)
		}
	}
}

func TestConnRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	msgs := allMessages()
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
	}
	r := NewConn(&buf)
	for _, want := range msgs {
		got, err := r.Recv()
		if err != nil {
			t.Fatalf("recv %T: %v", want, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("recv mismatch: sent %+v got %+v", want, got)
		}
	}
	if _, err := r.Recv(); err != io.EOF {
		t.Errorf("after last frame: got %v, want io.EOF", err)
	}
}

func TestReadFrameCorruption(t *testing.T) {
	frame := func(m Message) []byte {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := frame(&Cancel{ID: 7})

	t.Run("bit flip fails checksum", func(t *testing.T) {
		for i := 4; i < len(base); i++ { // skip the length word: covered below
			b := append([]byte(nil), base...)
			b[i] ^= 0x40
			_, _, err := NewConn(bytes.NewBuffer(b)).ReadFrame()
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("flip at %d: got %v, want *FrameError", i, err)
			}
		}
	})

	t.Run("truncation is ErrUnexpectedEOF", func(t *testing.T) {
		for i := 1; i < len(base); i++ {
			_, _, err := NewConn(bytes.NewBuffer(base[:i])).ReadFrame()
			if i < 4 {
				if err != io.ErrUnexpectedEOF && err != io.EOF {
					t.Fatalf("cut at %d: got %v", i, err)
				}
				continue
			}
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", i, err)
			}
		}
	})

	t.Run("oversized length rejected before allocation", func(t *testing.T) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
		_, _, err := NewConn(bytes.NewBuffer(hdr[:])).ReadFrame()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("got %v, want *FrameError", err)
		}
	})

	t.Run("zero length rejected", func(t *testing.T) {
		_, _, err := NewConn(bytes.NewBuffer(make([]byte, 8))).ReadFrame()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("got %v, want *FrameError", err)
		}
	})
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	cases := []struct {
		name    string
		t       byte
		payload []byte
	}{
		{"unknown type", 0xEE, []byte{1, 2, 3}},
		{"truncated payload", TQuery, appendMessage(nil, &Query{ID: 1})[:3]},
		{"trailing bytes", TCancel, append(appendMessage(nil, &Cancel{ID: 1}), 0)},
		{"declared slice too long", TRowChunk, func() []byte {
			b := appendMessage(nil, &RowChunk{ID: 1, Shard: 0, Rows: []float64{1}})
			// Overwrite the row-count word (after ID and Shard) with a huge value.
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			return b
		}()},
		{"aggpart cell count lies", TAggPart, func() []byte {
			b := appendMessage(nil, &AggPart{ID: 1, Shard: 0, Cells: []AggCell{{Count: 1}}})
			binary.LittleEndian.PutUint64(b[18:26], 1<<40)
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Decode(tc.t, tc.payload)
			if err == nil {
				t.Fatalf("decoded %+v from malformed payload", m)
			}
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want *FrameError", err)
			}
		})
	}
}

func TestHandshake(t *testing.T) {
	cc, sc := duplex(t)
	done := make(chan error, 1)
	go func() {
		done <- ServerHandshake(NewConn(sc), Welcome{Dims: 4, Shards: 16, Rows: 777, Col: 1, Cuts: []float64{3, 9}})
	}()
	w, err := ClientHandshake(NewConn(cc))
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if w.Dims != 4 || w.Shards != 16 || w.Rows != 777 || w.Col != 1 || !reflect.DeepEqual(w.Cuts, []float64{3, 9}) || w.Version != ProtocolVersion {
		t.Errorf("welcome = %+v", w)
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	cc, sc := duplex(t)
	done := make(chan error, 1)
	go func() { done <- ServerHandshake(NewConn(sc), Welcome{Dims: 4, Shards: 16}) }()
	c := NewConn(cc)
	if err := c.Send(&Hello{Magic: 0xDEAD, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if e, ok := m.(*Error); !ok || e.Code != CodeBadRequest {
		t.Errorf("got %+v, want *Error{Code: CodeBadRequest}", m)
	}
	if err := <-done; err == nil {
		t.Error("server accepted bad magic")
	}
}

func TestHandshakeRejectsVersionMismatch(t *testing.T) {
	cc, sc := duplex(t)
	go func() {
		c := NewConn(sc)
		c.Recv()
		c.Send(&Welcome{Version: ProtocolVersion + 1})
	}()
	if _, err := ClientHandshake(NewConn(cc)); err == nil {
		t.Error("client accepted version mismatch")
	}
}

// TestConcurrentWriters exercises the frame-atomic write path: many
// goroutines share one Conn and every frame must arrive intact.
func TestConcurrentWriters(t *testing.T) {
	pr, pw := io.Pipe()
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{Reader: pr, Writer: pw})

	const writers, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := c.Send(&RowChunk{ID: uint64(id), Shard: j, Rows: []float64{float64(id), float64(j)}}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(i)
	}
	go func() { wg.Wait(); pw.Close() }()

	r := NewConn(struct {
		io.Reader
		io.Writer
	}{Reader: pr, Writer: io.Discard})
	got := 0
	for {
		m, err := r.Recv()
		if err == io.EOF || err == io.ErrClosedPipe {
			break
		}
		if err != nil {
			t.Fatalf("recv after %d frames: %v", got, err)
		}
		ch := m.(*RowChunk)
		if ch.Rows[0] != float64(ch.ID) || ch.Rows[1] != float64(ch.Shard) {
			t.Fatalf("interleaved frame: %+v", ch)
		}
		got++
	}
	if got != writers*per {
		t.Errorf("received %d frames, want %d", got, writers*per)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	c := NewConn(&bytes.Buffer{})
	if err := c.WriteFrame(TRowChunk, make([]byte, MaxFrame)); err == nil {
		t.Error("oversized payload accepted")
	}
}
