package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes through both protocol layers: the
// frame reader (length + checksum) and, when a frame survives framing, the
// message decoder. Nothing may panic, and no input may drive an allocation
// beyond MaxFrame — corrupt streams must surface as errors.
//
// Valid frames are also re-encoded to check the codec round-trips: a
// payload the decoder accepts must encode back to the exact same bytes
// (the message layer has no don't-care bits).
func FuzzWireDecode(f *testing.F) {
	for _, m := range []Message{
		&Hello{Magic: Magic, Version: ProtocolVersion},
		&Welcome{Version: 1, Dims: 4, Shards: 16, Rows: 1000, Col: 0, Cuts: []float64{10, 20, 30}},
		&Query{ID: 1, Shards: []int{0, 1}, Min: []float64{0, 0}, Max: []float64{1, 1}, Keep: 1000, Limit: 10},
		&RowChunk{ID: 1, Shard: 0, Rows: []float64{1, 2, 3, 4}},
		&ShardEOF{ID: 1, Shard: 0, Rows: 2, Complete: true},
		&Done{ID: 1, Complete: true},
		&Agg{ID: 2, Shards: []int{0}, Min: []float64{0}, Max: []float64{1}, Op: 1, Col: 0, Group: -1},
		&AggPart{ID: 2, Shard: 0, Grouped: true, Complete: true, Cells: []AggCell{{Key: 1, Count: 2, Sum: 3, Min: 1, Max: 2}}},
		&Mutate{ID: 3, Op: MutInsert, Shard: 1, Row: []float64{5, 6}},
		&MutAck{ID: 3, Rows: 11},
		&Error{ID: 4, Code: CodeOverloaded, RetryAfterMillis: 100, Msg: "busy"},
		&Cancel{ID: 5},
		&Stats{ID: 6},
		&StatsRes{ID: 6, Rows: 100, Hosted: []int{0}, ShardRows: []int64{100}, MemoryOverhead: 4096, BuildSeconds: 0.25},
	} {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Adversarial seeds: truncated header, absurd length, zero length.
	f.Add([]byte{5, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{Reader: bytes.NewReader(data), Writer: io.Discard})
		for {
			ft, payload, err := c.ReadFrame()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					if _, ok := err.(*FrameError); !ok {
						t.Fatalf("ReadFrame: unexpected error type %T: %v", err, err)
					}
				}
				return
			}
			m, err := Decode(ft, payload)
			if err != nil {
				if _, ok := err.(*FrameError); !ok {
					t.Fatalf("Decode: unexpected error type %T: %v", err, err)
				}
				continue
			}
			if m.wireType() != ft {
				t.Fatalf("decoded %T reports type %#x, frame said %#x", m, m.wireType(), ft)
			}
			if got := appendMessage(nil, m); !bytes.Equal(got, payload) {
				t.Fatalf("re-encode of %T differs from accepted payload:\n got  %x\n want %x", m, got, payload)
			}
		}
	})
}
