package main

// The /query and /batch success bodies, built by appending rather than by
// reflecting over a response value: byte for byte what encoding/json wrote
// for the structs this replaced (kept in encode_test.go as the oracle), so
// "count" stays the first member, "rows" is omitted when empty, and every
// body ends in the newline json.Encoder appends. A row reply is encoded
// from a finished page — the exact count and the rows the engine kept
// (coax.Query.Head) — so no row is copied or formatted only to be dropped.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/index"
)

// maxPooledScratch is the largest scratch buffer worth keeping: one
// "limit":-1 reply over a wide rectangle must not pin a table-sized buffer
// in the pool.
const maxPooledScratch = 1 << 20

// scratchPool holds the buffers rows are encoded into while a scan runs.
// They never leave this file: a finished body is an exact-size copy.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeError marks an answer that JSON cannot carry (a non-finite number):
// the server's failure, a 500, counted in coax_http_response_errors_total.
type encodeError struct{ error }

func finite(v float64) bool { return v-v == 0 }

// appendFloat appends v as encoding/json formats a float64: shortest 'f',
// or 'e' with a one-digit exponent cleaned up outside [1e-6, 1e21). v must
// be finite. The 'f' range goes to the Schubfach formatter (ftoa.go); zero
// and the 'e' range, subnormals included, stay on strconv.
func appendFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs < 1<<53 {
		// An exact integer below 2^53 is its own shortest 'f' form, minus
		// the sign of a negative zero.
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	if abs >= 1e-6 && abs < 1e21 {
		return appendShortestF(b, v)
	}
	if abs != 0 {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		// e-09 → e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}

// rowsBody encodes the rows of one rectangle: the first limit rows (all of
// them when limit is negative) into a pooled scratch buffer, the rest only
// counted.
type rowsBody struct {
	limit, count, kept int
	scratch            *[]byte
	rows               []byte // "[..],[..]": the elements of "rows"
	nonFinite          bool
}

func newRowsBody(limit int) rowsBody {
	s := scratchPool.Get().(*[]byte)
	return rowsBody{limit: limit, scratch: s, rows: (*s)[:0]}
}

// release returns the scratch buffer; the rowsBody must not be used after.
func (rb *rowsBody) release() {
	if cap(rb.rows) <= maxPooledScratch {
		*rb.scratch = rb.rows[:0]
		scratchPool.Put(rb.scratch)
	}
	rb.scratch, rb.rows = nil, nil
}

// page lays a finished page into the body: its rows, of which the first
// limit are encoded, and its exact count.
func (rb *rowsBody) page(res *coax.HeadResult) {
	for _, row := range res.Rows {
		rb.add(row)
	}
	rb.count = res.Count
}

// headOf is a finished row fold as a page: its rows are views of the
// fold's copies.
func headOf(st *index.RowsState, complete bool) *coax.HeadResult {
	res := &coax.HeadResult{Count: int(st.Count), Rows: make([][]float64, st.Held()), Complete: complete}
	for i := range res.Rows {
		res.Rows[i] = st.Row(i)
	}
	return res
}

// add counts one row and encodes it while fewer than limit are. It always
// reports true: a body takes every row it is given.
func (rb *rowsBody) add(row []float64) bool {
	rb.count++
	if rb.limit >= 0 && rb.kept >= rb.limit {
		return true
	}
	b := rb.rows
	if rb.kept > 0 {
		b = append(b, ',')
	}
	rb.kept++
	if row == nil {
		rb.rows = append(b, "null"...)
		return true
	}
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		if !finite(v) {
			rb.nonFinite = true
			continue
		}
		b = appendFloat(b, v)
	}
	rb.rows = append(b, ']')
	return true
}

// reply is one {"count":…} object ready to be laid out: the encoded "rows"
// elements, "agg" object and "explain" object, each omitted when empty.
type reply struct {
	count              int
	rows, agg, explain []byte
}

// finish closes the body. The reply's rows are still the scratch buffer, so
// it must be laid out (body, batchBody) before release.
func (rb *rowsBody) finish(exp *coax.Explain) (reply, error) {
	if rb.nonFinite {
		return reply{}, encodeError{fmt.Errorf("a matching row holds a non-finite value, which JSON cannot carry")}
	}
	ex, err := explainJSON(exp)
	return reply{count: rb.count, rows: rb.rows, explain: ex}, err
}

func explainJSON(exp *coax.Explain) ([]byte, error) {
	if exp == nil {
		return nil, nil
	}
	b, err := json.Marshal(exp)
	if err != nil {
		return nil, encodeError{fmt.Errorf("encoding the execution report: %w", err)}
	}
	return b, nil
}

// aggReply shapes one aggregation answer: "value" is omitted when the
// aggregate is undefined (min/max/avg over zero rows) or when the result is
// grouped — grouped answers live in "groups", sorted by ascending key.
// spec names the aggregate in the overflow error.
func aggReply(res *coax.AggResult, spec index.AggSpec) (reply, error) {
	// Op is one of index.AggOp's names: plain ASCII, nothing to escape.
	b := append(make([]byte, 0, 64+48*len(res.Groups)), `{"op":"`...)
	b = append(b, res.Op...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, res.Count, 10)
	if res.Valid {
		if !finite(res.Value) {
			return reply{}, encodeError{fmt.Errorf("%s over dim %d overflowed: the result is %v, which JSON cannot carry", spec.Op, spec.Col, res.Value)}
		}
		b = append(b, `,"value":`...)
		b = appendFloat(b, res.Value)
	}
	if len(res.Groups) > 0 {
		b = append(b, `,"groups":[`...)
		for i, g := range res.Groups {
			if !finite(g.Key) || !finite(g.Value) {
				return reply{}, encodeError{fmt.Errorf("%s over dim %d overflowed in group %v: the result is %v, which JSON cannot carry", spec.Op, spec.Col, g.Key, g.Value)}
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"key":`...)
			b = appendFloat(b, g.Key)
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, g.Count, 10)
			b = append(b, `,"value":`...)
			b = appendFloat(b, g.Value)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"complete":`...)
	b = strconv.AppendBool(b, res.Complete)
	b = append(b, '}')
	ex, err := explainJSON(res.Explain)
	return reply{count: int(res.Count), agg: b, explain: ex}, err
}

// size is the exact length appendTo adds.
func (r reply) size() int {
	n := len(`{"count":}`)
	for c := r.count; c >= 10; c /= 10 {
		n++
	}
	n++
	if len(r.rows) > 0 {
		n += len(`,"rows":[]`) + len(r.rows)
	}
	if len(r.agg) > 0 {
		n += len(`,"agg":`) + len(r.agg)
	}
	if len(r.explain) > 0 {
		n += len(`,"explain":`) + len(r.explain)
	}
	return n
}

func (r reply) appendTo(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(r.count), 10)
	if len(r.rows) > 0 {
		b = append(b, `,"rows":[`...)
		b = append(b, r.rows...)
		b = append(b, ']')
	}
	if len(r.agg) > 0 {
		b = append(b, `,"agg":`...)
		b = append(b, r.agg...)
	}
	if len(r.explain) > 0 {
		b = append(b, `,"explain":`...)
		b = append(b, r.explain...)
	}
	return append(b, '}')
}

// body lays out a /query reply as an exact-size slice that shares nothing
// with the scratch buffers.
func (r reply) body() []byte {
	b := make([]byte, 0, r.size()+1)
	return append(r.appendTo(b), '\n')
}

// batchBody lays out a /batch reply: {"results":[…]} over rs.
func batchBody(rs []reply) []byte {
	n := len(`{"results":[]}`) + 1
	for i, r := range rs {
		if i > 0 {
			n++
		}
		n += r.size()
	}
	b := append(make([]byte, 0, n), `{"results":[`...)
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = r.appendTo(b)
	}
	return append(b, "]}\n"...)
}
