package index

import (
	"math"
	"math/bits"
	"slices"
)

// The row reply as a fold. A RowsState answers "how many rows match, and
// what are the first k of them" the way an AggState answers an aggregate:
// FoldBatch copies selected rows out of a batch only while fewer than Keep
// are held and counts the rest of the selection with a popcount, so a query
// that keeps k rows copies k rows, however many match. FoldRow does the same
// for callers that only have rows, and Merge combines the partial states of
// independent scans (the shards of a fan-out) in the order they are merged.

// RowsState is the running state of one row reply (or one shard's
// partial). The zero value counts matches and holds no rows. Not safe for
// concurrent use; fan-outs give each worker its own state and Merge at the
// gather point.
type RowsState struct {
	// Keep is how many rows to hold — the first Keep matches in scan
	// order — or every match when negative.
	Keep int
	// Limit, when positive, stops the fold once that many rows match:
	// FoldBatch and FoldRow then decline, Count stops at Limit, and no more
	// than Limit rows are held. It is independent of Keep, so a capped count
	// (Keep 0) copies nothing.
	Limit int
	// Count is the number of matching rows folded.
	Count int64
	// Rows holds the held rows back to back, Dims values each. They are
	// copies: nothing aliases the scanned pages.
	Rows []float64
	// Dims is the width of a held row, set by the first fold that holds one.
	Dims int
}

// Held reports the number of rows held.
func (s *RowsState) Held() int {
	if s.Dims == 0 {
		return 0
	}
	return len(s.Rows) / s.Dims
}

// Row returns held row i. The slice is capped at its own length, so a
// caller appending to it cannot reach the next row.
func (s *RowsState) Row(i int) []float64 {
	return s.Rows[i*s.Dims : (i+1)*s.Dims : (i+1)*s.Dims]
}

// room is how many more rows the state will hold. While it is positive,
// every row counted is held, so Count - Held is zero and the Limit bounds
// the rows held as it bounds the count.
func (s *RowsState) room() int {
	room := math.MaxInt
	if s.Keep >= 0 {
		room = s.Keep - s.Held()
	}
	if s.Limit > 0 {
		room = min(room, s.Limit-int(s.Count))
	}
	return room
}

// capped caps Count at a positive Limit and reports whether the fold should
// go on: false once Limit rows match.
func (s *RowsState) capped() bool {
	if s.Limit <= 0 || s.Count < int64(s.Limit) {
		return true
	}
	s.Count = int64(s.Limit)
	return false
}

// FoldBatch folds the selected rows of b: it copies them, in order, while
// fewer than Keep are held — gathered straight into the held rows, whatever
// the window's layout — and counts the remaining selection off the bitmap.
// Only while it has room does it pull the batch's columns, and then only
// from the first selected row to the last it keeps. It reports whether the
// scan should go on — false only once Limit rows match. Storage grows with
// the rows held, so a huge Keep over a small result allocates for the
// result.
func (s *RowsState) FoldBatch(b *Batch) bool {
	room := s.room()
	if room > 0 {
		s.Dims = b.Dims
		if n := min(room, b.Selected()); n > 0 {
			s.grow(n, b.Dims)
			if b.Cols != nil {
				lo, _ := SelRange(b.Sel)
				b.pullRows(lo, b.through(n))
			}
		}
	}
	for w, word := range b.Sel {
		base := w << 6
		for ; word != 0 && room > 0; room-- {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			s.Rows = b.appendRow(s.Rows, i)
			s.Count++
		}
		if room == 0 {
			s.Count += int64(bits.OnesCount64(word))
			for _, rest := range b.Sel[w+1:] {
				s.Count += int64(bits.OnesCount64(rest))
			}
			break
		}
	}
	return s.capped()
}

// minHeldRows is the least a fold's row storage starts with, and it
// quadruples while under firstHeldRows. A probe often holds a dozen rows,
// whatever its Keep, so storage starts from the rows its first fold holds;
// minHeldRows and 4·minHeldRows rows together stay under firstHeldRows, so
// holding up to 4·minHeldRows rows allocates less than a firstHeldRows-row
// start would.
const (
	minHeldRows   = 48
	firstHeldRows = 256
)

// grow makes room for n more held rows of dims values each. Storage starts
// at the first fold's n rows, at least minHeldRows, and quadruples while
// under firstHeldRows. Past that it at least doubles: appends past a few
// hundred values grow it by a quarter at a time and leave several times the
// kept rows behind. It never grows past Keep rows.
func (s *RowsState) grow(n, dims int) {
	need := n * dims
	if len(s.Rows)+need <= cap(s.Rows) {
		return
	}
	more := cap(s.Rows) // added to the length: doubles
	switch {
	case cap(s.Rows) == 0:
		need = max(need, minHeldRows*dims)
	case cap(s.Rows) < firstHeldRows*dims:
		more = 3 * cap(s.Rows) // quadruples
	}
	more = max(need, more)
	// Capped in rows, not values: Keep may be any int, and Keep·dims can
	// overflow.
	if room := s.Keep - len(s.Rows)/dims; s.Keep >= 0 && room <= more/dims {
		more = room * dims
	}
	s.Rows = slices.Grow(s.Rows, more)
}

// FoldRow folds one row exactly as FoldBatch folds a selected one, and
// reports whether the scan should go on; it is an index.Yield.
func (s *RowsState) FoldRow(row []float64) bool {
	if !s.capped() {
		return false // already at the Limit: decline, uncounted
	}
	// The rows held never outnumber Count, which is below the Limit here,
	// so only Keep bounds them — compared in rows, as Keep·dims can
	// overflow.
	if s.Keep < 0 || len(s.Rows)/len(row) < s.Keep {
		s.Dims = len(row)
		s.grow(1, len(row))
		s.Rows = append(s.Rows, row...)
	}
	s.Count++
	return s.capped()
}

// Merge appends o's fold to s's: the counts add (capped at Limit) and o's
// held rows follow s's, up to Keep. Merging the partials of a fan-out in
// shard order gives the rows of shard order, then scan order. While s's
// Rows is nil, s takes over o's row storage rather than copy it, so o must
// not be used afterwards.
func (s *RowsState) Merge(o *RowsState) {
	take := min(o.Held(), s.room())
	s.Count += o.Count
	s.capped()
	if take <= 0 {
		return
	}
	rows := o.Rows[:take*o.Dims]
	s.Dims = o.Dims
	if s.Rows == nil {
		s.Rows = rows
		return
	}
	s.Rows = append(s.Rows, rows...)
}
