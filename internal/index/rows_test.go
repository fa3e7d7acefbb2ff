package index

import "testing"

// TestKeepAllFoldSizedByItsRows: a fold keeping every row (Keep < 0) sizes
// its storage from the rows it holds, so a 12-row result — one row per
// batch, or all in one — allocates for far fewer than the firstHeldRows a
// fold keeping Keep ≥ 0 rows starts with; that one still starts there.
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
		for _, keep := range []int{-1, 100} {
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
			if keep < 0 && held > 64 {
				t.Errorf("Keep -1, %d rows per batch: storage for %d rows, holding %d", per, held, rows)
			}
			if keep >= 0 && held < min(keep, firstHeldRows) {
				t.Errorf("Keep %d, %d rows per batch: storage for %d rows, want %d from the start", keep, per, held, min(keep, firstHeldRows))
			}
		}
	}
}
