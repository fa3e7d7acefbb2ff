package index

import (
	"math"
	"testing"
)

// TestKeepAllFoldSizedByItsRows: a fold sizes its storage from the rows it
// holds, whatever its Keep, so a 12-row result — one row per batch, or all
// in one — allocates for far fewer than firstHeldRows rows, keeping every
// row or up to 100 or 1 000.
func TestKeepAllFoldSizedByItsRows(t *testing.T) {
	const dims, rows = 4, 12
	page := make([]float64, rows*dims)
	for i := range page {
		page[i] = float64(i)
	}
	batch := func(lo, hi int) *Batch {
		b := &Batch{Page: page[lo*dims : hi*dims], Dims: dims, Rows: hi - lo, RowStep: dims, ColStep: 1, Sel: make([]uint64, 1)}
		b.Sel[0] = 1<<(hi-lo) - 1
		return b
	}
	for _, per := range []int{1, 5, rows} {
		for _, keep := range []int{-1, 100, 1000} {
			st := RowsState{Keep: keep}
			for lo := 0; lo < rows; lo += per {
				st.FoldBatch(batch(lo, min(lo+per, rows)))
			}
			if st.Count != rows || st.Held() != rows {
				t.Fatalf("Keep %d, %d rows per batch: held %d of %d, want %d", keep, per, st.Held(), st.Count, rows)
			}
			for i := range rows {
				if got := st.Row(i)[0]; got != float64(i*dims) {
					t.Fatalf("Keep %d, %d rows per batch: row %d starts %v", keep, per, i, got)
				}
			}
			held := cap(st.Rows) / dims
			if held > 64 {
				t.Errorf("Keep %d, %d rows per batch: storage for %d rows, holding %d", keep, per, held, rows)
			}
		}
	}

	// Storage never outgrows Keep: 16 rows kept of 36 folded, 12 at a time
	// (16 rows of 4 values fill a 512-byte size class exactly).
	st := RowsState{Keep: 16}
	for range 3 {
		st.FoldBatch(batch(0, rows))
	}
	if st.Count != 3*rows || st.Held() != 16 || cap(st.Rows) != 16*dims {
		t.Errorf("Keep 16 over %d rows: held %d of %d in storage for %d rows", 3*rows, st.Held(), st.Count, cap(st.Rows)/dims)
	}
}

// TestMaxIntKeepFolds: a Keep of math.MaxInt, whose product with the row
// width overflows, holds every row, by batch and by row.
func TestMaxIntKeepFolds(t *testing.T) {
	const dims, rows = 4, 12
	page := make([]float64, rows*dims)
	b := &Batch{Page: page, Dims: dims, Rows: rows, RowStep: dims, ColStep: 1, Sel: []uint64{1<<rows - 1}}
	for _, limit := range []int{0, math.MaxInt} {
		st := RowsState{Keep: math.MaxInt, Limit: limit}
		byRow := st
		for range 3 {
			st.FoldBatch(b)
			for i := range rows {
				byRow.FoldRow(page[i*dims : (i+1)*dims])
			}
		}
		if st.Count != 3*rows || st.Held() != 3*rows || byRow.Count != 3*rows || byRow.Held() != 3*rows {
			t.Errorf("Keep MaxInt, Limit %d: batches held %d of %d, rows held %d of %d", limit, st.Held(), st.Count, byRow.Held(), byRow.Count)
		}
	}
}
