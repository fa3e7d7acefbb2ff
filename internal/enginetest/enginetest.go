// Package enginetest is the one table every engine's tests hold it to. An
// engine in some state is driven through each of its consumers — a row
// scan, a batch scan walked with Batch.Each, an aggregate fold for all five
// ops, ungrouped and grouped, and a row-reply fold (index.RowsState) for every
// Keep in {0, 1, 100, all} by every Limit in {none, 1, 100} — and every consumer
// is compared against internal/scan's plain row loop over the live rows:
// the same multiset, the same aggregate bits, the same counts, and probe
// counters that add up.
package enginetest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/scan"
)

// Engine is the surface the table drives.
type Engine struct {
	// Rows is the row scan: Scan, or Exec behind it for COAX and the
	// sharded engine.
	Rows func(r index.Rect, yield index.Yield, probe *index.Probe) bool
	// Batches is the batch scan of a storage engine; nil for an engine
	// that exposes only Fold.
	Batches func(r index.Rect, yield index.BatchYield, probe *index.Probe) bool
	// Fold folds every row inside r into st: ExecAgg for COAX and the
	// sharded engine; nil for a storage engine, whose fold is FoldBatch
	// over Batches.
	Fold func(r index.Rect, st *index.AggState, probe *index.Probe) bool
	// FoldRows folds r into a row reply, as Fold does into an aggregate:
	// ExecAgg for COAX, ExecRows for the sharded engine, nil for a storage
	// engine.
	FoldRows func(r index.Rect, st *index.RowsState, probe *index.Probe) bool
	// RowsInPlace says Rows tests rows where they lie (the R-tree, whose
	// baseline cost must not pay for a gather) and so reports no batches.
	RowsInPlace bool
}

// Storage is the Engine of a storage engine's two traversals.
func Storage(e interface {
	index.Interface
	index.ScanBatcher
}) Engine {
	return Engine{Rows: e.Scan, Batches: e.ScanBatch}
}

// Quantize rounds column col of t to multiples of 1/16 (never -0), which
// makes sums over it exact and its extrema unique, and therefore both
// independent of the order an engine visits rows in — what lets Check
// demand the reference's aggregates to the bit.
func Quantize(t *dataset.Table, col int) {
	for i := 0; i < t.Len(); i++ {
		t.Row(i)[col] = math.Round(t.Row(i)[col]*16)/16 + 0
	}
}

// Live is the multiset of rows an engine under test should hold, kept
// beside it through the same inserts and deletes.
type Live struct{ rows [][]float64 }

// NewLive starts from the rows of t.
func NewLive(t *dataset.Table) *Live {
	l := &Live{}
	for i := 0; i < t.Len(); i++ {
		l.Insert(t.Row(i))
	}
	return l
}

// Insert adds one copy of row.
func (l *Live) Insert(row []float64) { l.rows = append(l.rows, append([]float64(nil), row...)) }

// Delete removes one row equal to row; the engine's delete must have found
// one exactly when this does.
func (l *Live) Delete(row []float64) bool {
	for i, have := range l.rows {
		if lifecycle.RowsEqual(have, row) {
			l.rows[i] = l.rows[len(l.rows)-1]
			l.rows = l.rows[:len(l.rows)-1]
			return true
		}
	}
	return false
}

// Table is the live rows as the table the reference scans.
func (l *Live) Table(cols []string) *dataset.Table {
	t := dataset.NewTable(cols)
	for _, row := range l.rows {
		t.Append(row)
	}
	return t
}

// Check holds e to the reference over the live rows for every rectangle.
// Aggregates read column col (see Quantize) and group by column group.
func Check(t *testing.T, label string, live *dataset.Table, e Engine, rects []index.Rect, col, group int) {
	t.Helper()
	ref := scan.New(live)
	specs := []index.AggSpec{
		{Op: index.AggCount, Col: -1, Group: -1},
		{Op: index.AggSum, Col: col, Group: -1},
		{Op: index.AggMin, Col: col, Group: -1},
		{Op: index.AggMax, Col: col, Group: -1},
		{Op: index.AggAvg, Col: col, Group: -1},
		{Op: index.AggCount, Col: -1, Group: group},
		{Op: index.AggSum, Col: col, Group: group},
		{Op: index.AggMin, Col: col, Group: group},
		{Op: index.AggMax, Col: col, Group: group},
		{Op: index.AggAvg, Col: col, Group: group},
	}
	fold := e.Fold
	if fold == nil {
		fold = func(r index.Rect, st *index.AggState, probe *index.Probe) bool {
			return e.Batches(r, st.FoldBatch, probe)
		}
	}
	foldRows := e.FoldRows
	if foldRows == nil {
		foldRows = func(r index.Rect, st *index.RowsState, probe *index.Probe) bool {
			return e.Batches(r, st.FoldBatch, probe)
		}
	}
	for qi, r := range rects {
		var want [][]float64
		ref.Scan(r, func(row []float64) bool { want = append(want, row); return true }, nil)
		sortRows(want)

		// first is the first consumer's probe: one engine, one rectangle,
		// one amount of work, whoever consumes it.
		var first *index.Probe
		// wantBatches: a batch traversal hands out a batch exactly when it
		// has rows to test.
		counters := func(consumer string, p *index.Probe, wantBatches bool) {
			t.Helper()
			if p.Matched != int64(len(want)) || p.Scanned < p.Matched {
				t.Fatalf("%s query %d %s: matched %d of %d scanned, reference has %d rows", label, qi, consumer, p.Matched, p.Scanned, len(want))
			}
			if (p.Batches > 0) != wantBatches {
				t.Fatalf("%s query %d %s: %d batches over %d pages, %d rows scanned", label, qi, consumer, p.Batches, p.Pages, p.Scanned)
			}
			if first == nil {
				first = p
			} else if p.Pages != first.Pages || p.Scanned != first.Scanned || p.Tombstones != first.Tombstones {
				t.Fatalf("%s query %d %s: {pages %d scanned %d tombstones %d}, first consumer {%d %d %d}", label, qi, consumer,
					p.Pages, p.Scanned, p.Tombstones, first.Pages, first.Scanned, first.Tombstones)
			}
		}
		rows := func(consumer string, run func(index.Yield, *index.Probe) bool, batched bool) {
			t.Helper()
			var got [][]float64
			var p index.Probe
			if !run(func(row []float64) bool { got = append(got, append([]float64(nil), row...)); return true }, &p) {
				t.Fatalf("%s query %d %s: unstopped scan reported incomplete", label, qi, consumer)
			}
			sortRows(got)
			if len(got) != len(want) {
				t.Fatalf("%s query %d %s: %d rows, reference has %d", label, qi, consumer, len(got), len(want))
			}
			for i := range got {
				for d := range got[i] {
					if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
						t.Fatalf("%s query %d %s: row %d is %v, reference has %v", label, qi, consumer, i, got[i], want[i])
					}
				}
			}
			counters(consumer, &p, batched && p.Scanned > 0)
		}

		rows("rows", func(y index.Yield, p *index.Probe) bool { return e.Rows(r, y, p) }, !e.RowsInPlace)
		if e.Batches != nil {
			rows("batches+Each", func(y index.Yield, p *index.Probe) bool {
				return e.Batches(r, func(b *index.Batch) bool { return b.Each(y) }, p)
			}, true)
		}
		for _, spec := range specs {
			wantSt := index.NewAggState(spec)
			for _, row := range want {
				wantSt.FoldRow(row)
			}
			got := index.NewAggState(spec)
			var p index.Probe
			if !fold(r, got, &p) {
				t.Fatalf("%s query %d fold %v: unaborted fold reported incomplete", label, qi, spec.Op)
			}
			if !sameCell(got.All, wantSt.All) || len(got.Groups) != len(wantSt.Groups) {
				t.Fatalf("%s query %d fold %v: %+v in %d groups, reference %+v in %d", label, qi, spec.Op,
					got.All, len(got.Groups), wantSt.All, len(wantSt.Groups))
			}
			for k, w := range wantSt.Groups {
				if g := got.Groups[k]; g == nil || !sameCell(*g, *w) {
					t.Fatalf("%s query %d fold %v group %g: %+v, reference %+v", label, qi, spec.Op, k, g, w)
				}
			}
			counters("fold", &p, p.Scanned > 0)
		}

		// The row reply: the engine's scan order is that of its fold keeping
		// every row, whose rows are the reference's; every other fold holds
		// a prefix of them and the exact count (capped at a positive Limit).
		// A Keep or Limit of math.MaxInt bounds nothing, and sizes nothing.
		var all index.RowsState
		for _, keep := range []int{-1, 0, 1, 100, math.MaxInt} {
			for _, limit := range []int{0, 1, 100, math.MaxInt} {
				consumer := fmt.Sprintf("rows fold keep %d limit %d", keep, limit)
				got := index.RowsState{Keep: keep, Limit: limit}
				var p index.Probe
				complete := foldRows(r, &got, &p)
				wantCount := int64(len(want))
				if limit > 0 {
					wantCount = min(wantCount, int64(limit))
				}
				if got.Count != wantCount {
					t.Fatalf("%s query %d %s: count %d, reference %d of %d", label, qi, consumer, got.Count, wantCount, len(want))
				}
				if !complete && !(limit > 0 && got.Count == int64(limit)) {
					t.Fatalf("%s query %d %s: stopped short at %d of %d rows", label, qi, consumer, got.Count, len(want))
				}
				if keep == -1 && limit == 0 {
					all = got
					held := make([][]float64, all.Held())
					for i := range held {
						held[i] = all.Row(i)
					}
					sortRows(held)
					if !sameRows(held, want) {
						t.Fatalf("%s query %d %s: held rows are not the reference's", label, qi, consumer)
					}
				}
				wantHeld := int(got.Count)
				if keep >= 0 {
					wantHeld = min(wantHeld, keep)
				}
				if got.Held() != wantHeld || !slices.Equal(got.Rows, all.Rows[:len(got.Rows)]) {
					t.Fatalf("%s query %d %s: holds %d rows, not the first %d the full fold holds", label, qi, consumer, got.Held(), wantHeld)
				}
				if limit == 0 {
					counters(consumer, &p, p.Scanned > 0)
				}
				// FoldRow over the row scan agrees with the batch fold, row
				// for row.
				byRow := index.RowsState{Keep: keep, Limit: limit}
				if e.Rows(r, byRow.FoldRow, nil) != complete || byRow.Count != got.Count || !slices.Equal(byRow.Rows, got.Rows) {
					t.Fatalf("%s query %d %s: FoldRow over the row scan holds %d of %d, the batch fold %d of %d", label, qi, consumer,
						byRow.Held(), byRow.Count, got.Held(), got.Count)
				}
			}
		}
	}
}

// sameRows requires bit-identical rows.
func sameRows(a, b [][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	})
}

// sameCell requires bit-identical aggregates.
func sameCell(a, b index.AggCell) bool {
	return a.Count == b.Count && math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		(a.Count == 0 || (math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
			math.Float64bits(a.Max) == math.Float64bits(b.Max)))
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		for d := range rows[i] {
			if rows[i][d] != rows[j][d] {
				return rows[i][d] < rows[j][d]
			}
		}
		return false
	})
}
