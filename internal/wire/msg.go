package wire

import (
	"fmt"
	"time"

	"github.com/coax-index/coax/internal/binio"
)

// Message is one protocol message: a frame type plus a binio-encoded
// payload. Decode inverts appendMessage exactly (trailing bytes are an
// error), so the set of valid payloads is closed under round-tripping.
type Message interface {
	wireType() byte
	encode(w *binio.Writer)
	decode(r *binio.Reader)
}

// appendMessage encodes m's payload.
func appendMessage(_ []byte, m Message) []byte {
	w := binio.NewWriter()
	m.encode(w)
	return w.Bytes()
}

// Decode parses one message payload. Corrupt, truncated, or
// over-long payloads return a *FrameError; no input panics and no declared
// length can allocate beyond the payload actually present (binio's bounds
// rules).
func Decode(t byte, payload []byte) (Message, error) {
	m := newMessage(t)
	if m == nil {
		return nil, &FrameError{Reason: fmt.Sprintf("unknown frame type %#x", t)}
	}
	r := binio.NewReader(payload)
	m.decode(r)
	if err := r.Close(); err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("decoding frame type %#x: %v", t, err)}
	}
	return m, nil
}

func newMessage(t byte) Message {
	switch t {
	case THello:
		return &Hello{}
	case TWelcome:
		return &Welcome{}
	case TError:
		return &Error{}
	case TCancel:
		return &Cancel{}
	case TPing:
		return &Ping{}
	case TPong:
		return &Pong{}
	case TQuery:
		return &Query{}
	case TRowChunk:
		return &RowChunk{}
	case TShardEOF:
		return &ShardEOF{}
	case TDone:
		return &Done{}
	case TAgg:
		return &Agg{}
	case TAggPart:
		return &AggPart{}
	case TMutate:
		return &Mutate{}
	case TMutAck:
		return &MutAck{}
	case TStats:
		return &Stats{}
	case TStatsRes:
		return &StatsRes{}
	}
	return nil
}

// --- handshake ---

// Hello opens every client connection: the magic constant plus the
// client's protocol version.
type Hello struct {
	Magic   uint32
	Version uint32
}

func (*Hello) wireType() byte { return THello }
func (m *Hello) encode(w *binio.Writer) {
	w.Uint32(m.Magic)
	w.Uint32(m.Version)
}
func (m *Hello) decode(r *binio.Reader) {
	m.Magic = r.Uint32()
	m.Version = r.Uint32()
}

// Welcome is the server's handshake reply: its protocol version, the row
// dimensionality it serves, the cluster's global shard count, and where
// rows live: global shard g holds the rows whose column Col lies in
// [Cuts[g-1], Cuts[g]), its K-1 cut points ascending.
type Welcome struct {
	Version uint32
	Dims    int
	Shards  int
	Rows    int64
	Col     int
	Cuts    []float64
}

func (*Welcome) wireType() byte { return TWelcome }
func (m *Welcome) encode(w *binio.Writer) {
	w.Uint32(m.Version)
	w.Int(m.Dims)
	w.Int(m.Shards)
	w.Int64(m.Rows)
	w.Int(m.Col)
	w.Float64s(m.Cuts)
}
func (m *Welcome) decode(r *binio.Reader) {
	m.Version = r.Uint32()
	m.Dims = r.Int()
	m.Shards = r.Int()
	m.Rows = r.Int64()
	m.Col = r.Int()
	m.Cuts = r.Float64s()
}

// --- control ---

// Error codes. Overloaded carries a Retry-After hint; NotFound and BadRow
// map to the engine's logical mutation errors; the rest are protocol or
// internal failures.
const (
	CodeInternal   uint8 = 1
	CodeOverloaded uint8 = 2
	CodeNotFound   uint8 = 3
	CodeBadRow     uint8 = 4
	CodeBadShard   uint8 = 5
	CodeBadRequest uint8 = 6
)

// Error aborts the request identified by ID.
type Error struct {
	ID               uint64
	Code             uint8
	RetryAfterMillis int64 // only meaningful for CodeOverloaded
	Msg              string
}

func (*Error) wireType() byte { return TError }
func (m *Error) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Uint64(uint64(m.Code))
	w.Int64(m.RetryAfterMillis)
	w.String(m.Msg)
}
func (m *Error) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Code = uint8(r.Uint64())
	m.RetryAfterMillis = r.Int64()
	m.Msg = r.String()
}

// RetryAfter converts the millisecond hint.
func (m *Error) RetryAfter() time.Duration {
	return time.Duration(m.RetryAfterMillis) * time.Millisecond
}

// Cancel asks the server to stop the request identified by ID; the server
// still terminates the request's stream with Done (or Error), so the
// client always reaches a clean frame boundary.
type Cancel struct {
	ID uint64
}

func (*Cancel) wireType() byte           { return TCancel }
func (m *Cancel) encode(w *binio.Writer) { w.Uint64(m.ID) }
func (m *Cancel) decode(r *binio.Reader) { m.ID = r.Uint64() }

// Ping is a liveness probe (circuit-breaker half-open checks).
type Ping struct{ ID uint64 }

func (*Ping) wireType() byte           { return TPing }
func (m *Ping) encode(w *binio.Writer) { w.Uint64(m.ID) }
func (m *Ping) decode(r *binio.Reader) { m.ID = r.Uint64() }

// Pong answers a Ping.
type Pong struct{ ID uint64 }

func (*Pong) wireType() byte           { return TPong }
func (m *Pong) encode(w *binio.Writer) { w.Uint64(m.ID) }
func (m *Pong) decode(r *binio.Reader) { m.ID = r.Uint64() }

// --- query plane ---

// Query asks the node to fold the listed global shards with one rectangle,
// as index.RowsState{Keep, Limit} folds: each shard's first Keep matches
// (every match when Keep < 0) and its match count. Limit ≤ 0 counts
// everything; a positive limit lets the node stop each shard's scan after
// that many local matches (any Limit matching rows satisfy the router). The
// response is, for each requested shard in turn, the RowChunk frames of its
// kept rows and then its ShardEOF, and a final Done.
type Query struct {
	ID       uint64
	Shards   []int
	Min, Max []float64
	Keep     int64
	Limit    int64
}

func (*Query) wireType() byte { return TQuery }
func (m *Query) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Ints(m.Shards)
	w.Float64s(m.Min)
	w.Float64s(m.Max)
	w.Int64(m.Keep)
	w.Int64(m.Limit)
}
func (m *Query) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Shards = r.Ints()
	m.Min = r.Float64s()
	m.Max = r.Float64s()
	m.Keep = r.Int64()
	m.Limit = r.Int64()
}

// RowChunk carries a batch of matching rows from one global shard,
// flattened row-major (len(Rows) is a multiple of the handshake's Dims).
type RowChunk struct {
	ID    uint64
	Shard int
	Rows  []float64
}

func (*RowChunk) wireType() byte { return TRowChunk }
func (m *RowChunk) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Int(m.Shard)
	w.Float64s(m.Rows)
}
func (m *RowChunk) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Shard = r.Int()
	m.Rows = r.Float64s()
}

// ShardEOF marks the end of one shard's row stream: every RowChunk for
// that shard has been sent, and Rows is the shard's exact match count
// (capped at the Query's Limit), however few rows Keep let through.
// Complete is false when the scan stopped early (limit met or cancelled) —
// the rows sent are a valid subset, not the full multiset.
type ShardEOF struct {
	ID       uint64
	Shard    int
	Rows     int64
	Complete bool
}

func (*ShardEOF) wireType() byte { return TShardEOF }
func (m *ShardEOF) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Int(m.Shard)
	w.Int64(m.Rows)
	w.Bool(m.Complete)
}
func (m *ShardEOF) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Shard = r.Int()
	m.Rows = r.Int64()
	m.Complete = r.Bool()
}

// Done terminates a request's response stream.
type Done struct {
	ID       uint64
	Complete bool
}

func (*Done) wireType() byte { return TDone }
func (m *Done) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Bool(m.Complete)
}
func (m *Done) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Complete = r.Bool()
}

// --- aggregation plane ---

// Agg asks the node to fold the listed shards' matching rows into one
// partial aggregate per shard (op/col/group follow index.AggSpec; group -1
// means ungrouped, col is ignored for COUNT). The response is one AggPart
// per requested shard and a final Done.
type Agg struct {
	ID       uint64
	Shards   []int
	Min, Max []float64
	Op       uint8
	Col      int
	Group    int
}

func (*Agg) wireType() byte { return TAgg }
func (m *Agg) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Ints(m.Shards)
	w.Float64s(m.Min)
	w.Float64s(m.Max)
	w.Uint64(uint64(m.Op))
	w.Int(m.Col)
	w.Int(m.Group)
}
func (m *Agg) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Shards = r.Ints()
	m.Min = r.Float64s()
	m.Max = r.Float64s()
	m.Op = uint8(r.Uint64())
	m.Col = r.Int()
	m.Group = r.Int()
}

// AggCell is one running aggregate on the wire (index.AggCell plus the
// group key it belongs to; Key is unused for ungrouped parts).
type AggCell struct {
	Key   float64
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// AggPart is one shard's partial aggregate: a single cell when ungrouped,
// one cell per group key (ascending) when grouped. Complete is false when
// the fold was cut short by cancellation.
type AggPart struct {
	ID       uint64
	Shard    int
	Grouped  bool
	Complete bool
	Cells    []AggCell
}

func (*AggPart) wireType() byte { return TAggPart }
func (m *AggPart) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Int(m.Shard)
	w.Bool(m.Grouped)
	w.Bool(m.Complete)
	w.Uint64(uint64(len(m.Cells)))
	for _, c := range m.Cells {
		w.Float64(c.Key)
		w.Int64(c.Count)
		w.Float64(c.Sum)
		w.Float64(c.Min)
		w.Float64(c.Max)
	}
}
func (m *AggPart) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Shard = r.Int()
	m.Grouped = r.Bool()
	m.Complete = r.Bool()
	n := int(r.Uint64())
	// Bound the allocation by the bytes actually present (40 per cell).
	if max := r.Remaining() / 40; n > max {
		n = max + 1 // one over: forces a clean short-read error from binio
	}
	if n <= 0 {
		return
	}
	m.Cells = make([]AggCell, 0, n)
	for i := 0; i < n; i++ {
		m.Cells = append(m.Cells, AggCell{
			Key:   r.Float64(),
			Count: r.Int64(),
			Sum:   r.Float64(),
			Min:   r.Float64(),
			Max:   r.Float64(),
		})
	}
}

// --- mutation plane ---

// Mutation ops.
const (
	MutInsert uint8 = 1
	MutDelete uint8 = 2
	MutUpdate uint8 = 3
)

// Mutate applies one mutation to one global shard the node hosts. Row is
// the inserted/deleted row (the old row for update); New is only present
// for update.
type Mutate struct {
	ID    uint64
	Op    uint8
	Shard int
	Row   []float64
	New   []float64
}

func (*Mutate) wireType() byte { return TMutate }
func (m *Mutate) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Uint64(uint64(m.Op))
	w.Int(m.Shard)
	w.Float64s(m.Row)
	w.Float64s(m.New)
}
func (m *Mutate) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Op = uint8(r.Uint64())
	m.Shard = r.Int()
	m.Row = r.Float64s()
	m.New = r.Float64s()
}

// MutAck acknowledges a successful mutation; Rows is the node's live row
// count afterwards.
type MutAck struct {
	ID   uint64
	Rows int64
}

func (*MutAck) wireType() byte { return TMutAck }
func (m *MutAck) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Int64(m.Rows)
}
func (m *MutAck) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Rows = r.Int64()
}

// --- stats plane ---

// Stats asks the node for its shape.
type Stats struct{ ID uint64 }

func (*Stats) wireType() byte           { return TStats }
func (m *Stats) encode(w *binio.Writer) { w.Uint64(m.ID) }
func (m *Stats) decode(r *binio.Reader) { m.ID = r.Uint64() }

// StatsRes reports the node's shape: total live rows, the global shards it
// hosts, each hosted shard's live row count (aligned with Hosted), the
// index directory bytes of its hosted shards summed (MemoryOverhead), and
// how long building them took at start-up (BuildSeconds).
type StatsRes struct {
	ID             uint64
	Rows           int64
	Hosted         []int
	ShardRows      []int64
	MemoryOverhead int64
	BuildSeconds   float64
}

func (*StatsRes) wireType() byte { return TStatsRes }
func (m *StatsRes) encode(w *binio.Writer) {
	w.Uint64(m.ID)
	w.Int64(m.Rows)
	w.Ints(m.Hosted)
	w.Int64s(m.ShardRows)
	w.Int64(m.MemoryOverhead)
	w.Float64(m.BuildSeconds)
}
func (m *StatsRes) decode(r *binio.Reader) {
	m.ID = r.Uint64()
	m.Rows = r.Int64()
	m.Hosted = r.Ints()
	m.ShardRows = r.Int64s()
	m.MemoryOverhead = r.Int64()
	m.BuildSeconds = r.Float64()
}

// --- handshake helpers ---

// ClientHandshake sends Hello and validates the Welcome.
func ClientHandshake(c *Conn) (*Welcome, error) {
	if err := c.Send(&Hello{Magic: Magic, Version: ProtocolVersion}); err != nil {
		return nil, err
	}
	m, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	switch w := m.(type) {
	case *Welcome:
		if w.Version != ProtocolVersion {
			return nil, fmt.Errorf("wire: protocol version mismatch: node speaks %d, client speaks %d", w.Version, ProtocolVersion)
		}
		return w, nil
	case *Error:
		return nil, fmt.Errorf("wire: handshake rejected: %s", w.Msg)
	default:
		return nil, fmt.Errorf("wire: handshake: unexpected %T reply", m)
	}
}

// ServerHandshake validates the Hello and answers w, stamped with this
// protocol version. A bad magic or version mismatch is answered with an
// Error frame before failing, so a confused client sees why instead of a
// dropped connection.
func ServerHandshake(c *Conn, w Welcome) error {
	m, err := c.Recv()
	if err != nil {
		return fmt.Errorf("wire: handshake: %w", err)
	}
	h, ok := m.(*Hello)
	if !ok {
		c.Send(&Error{Code: CodeBadRequest, Msg: "expected Hello"})
		return fmt.Errorf("wire: handshake: unexpected %T", m)
	}
	if h.Magic != Magic {
		c.Send(&Error{Code: CodeBadRequest, Msg: "bad magic"})
		return fmt.Errorf("wire: handshake: bad magic %#x", h.Magic)
	}
	if h.Version != ProtocolVersion {
		c.Send(&Error{Code: CodeBadRequest, Msg: fmt.Sprintf("protocol version %d unsupported (node speaks %d)", h.Version, ProtocolVersion)})
		return fmt.Errorf("wire: handshake: client version %d, node speaks %d", h.Version, ProtocolVersion)
	}
	w.Version = ProtocolVersion
	return c.Send(&w)
}
