package main

// The oracle answers a rectangle by scanning the table — no COAX code is
// involved beyond the Rect type. The only shortcut is that the base table is
// kept sorted on column 0, so a scan visits just the rows whose first column
// lies inside the rectangle's first interval; every visited row is still
// tested against the full rectangle.

import (
	"fmt"
	"math"
	"sort"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

type oracle struct {
	dims int
	data []float64 // row-major, ascending on column 0
}

func newOracle(t *dataset.Table) *oracle {
	o := &oracle{dims: t.Dims()}
	n := t.Len()
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = t.Row(i - 1)[0] <= t.Row(i)[0]
	}
	if sorted {
		o.data = t.Data
		return o
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return t.Row(perm[a])[0] < t.Row(perm[b])[0] })
	o.data = make([]float64, 0, len(t.Data))
	for _, i := range perm {
		o.data = append(o.data, t.Row(i)...)
	}
	return o
}

// scan calls visit for every row inside r.
func (o *oracle) scan(r index.Rect, visit func(row []float64)) {
	d := o.dims
	n := len(o.data) / d
	lo := sort.Search(n, func(i int) bool { return o.data[i*d] >= r.Min[0] })
	for i := lo; i < n; i++ {
		row := o.data[i*d : (i+1)*d]
		if row[0] > r.Max[0] {
			break
		}
		if r.Contains(row) {
			visit(row)
		}
	}
}

// scanAll is the unsorted variant, for the live multiset after writes.
func scanAll(t *dataset.Table, r index.Rect, visit func(row []float64)) {
	for i := range t.Len() {
		if row := t.Row(i); r.Contains(row) {
			visit(row)
		}
	}
}

// rowHash mixes a row's bit patterns into one word (splitmix64 finaliser
// per value); summing the hashes of a result gives an order-independent
// checksum of the multiset.
func rowHash(row []float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		x := math.Float64bits(v) + h
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h = x
	}
	return h
}

// answer is what the harness keeps of one response.
type answer struct {
	count int64
	// decoded responses only (warm-up and post-phase checks):
	rows     [][]float64
	aggValue *float64
}

// checkRows verifies a row-query answer against the matching rows the
// oracle found: the count is exact, the returned rows are a sub-multiset of
// the matches, and — when the limit did not truncate — the whole multiset.
func checkRows(o op, a answer, scan func(index.Rect, func([]float64))) error {
	want := map[uint64]int{}
	var n int64
	scan(o.rect, func(row []float64) {
		want[rowHash(row)]++
		n++
	})
	if a.count != n {
		return fmt.Errorf("count %d, full scan finds %d", a.count, n)
	}
	wantRows := n
	if o.limit >= 0 && int64(o.limit) < n {
		wantRows = int64(o.limit)
	}
	if int64(len(a.rows)) != wantRows {
		return fmt.Errorf("%d rows returned, want %d (count %d, limit %d)", len(a.rows), wantRows, n, o.limit)
	}
	for _, row := range a.rows {
		h := rowHash(row)
		if want[h] == 0 {
			return fmt.Errorf("returned row %v is not among the full scan's matches", row)
		}
		want[h]--
	}
	return nil
}

// checkAgg verifies an aggregate answer: count exactly, the value to 1e-9
// relative (the engine folds per shard, the oracle in one pass, so sums
// differ in the last bits).
func checkAgg(o op, a answer, scan func(index.Rect, func([]float64))) error {
	var n int64
	sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	scan(o.rect, func(row []float64) {
		n++
		if o.agg.Col >= 0 {
			v := row[o.agg.Col]
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	})
	if a.count != n {
		return fmt.Errorf("%s count %d, full scan finds %d", o.agg.Op, a.count, n)
	}
	var want float64
	ok := n > 0
	switch o.agg.Op {
	case index.AggCount:
		return nil
	case index.AggSum:
		want, ok = sum, true
	case index.AggMin:
		want = lo
	case index.AggMax:
		want = hi
	case index.AggAvg:
		want = sum / float64(n)
	}
	if ok != (a.aggValue != nil) {
		return fmt.Errorf("%s value present=%v, full scan says %v", o.agg.Op, a.aggValue != nil, ok)
	}
	if ok {
		if diff := math.Abs(*a.aggValue - want); diff > 1e-9*math.Max(math.Abs(want), 1) {
			return fmt.Errorf("%s value %v, full scan computes %v", o.agg.Op, *a.aggValue, want)
		}
	}
	return nil
}

func check(o op, a answer, scan func(index.Rect, func([]float64))) error {
	if o.kind == opAgg {
		return checkAgg(o, a, scan)
	}
	return checkRows(o, a, scan)
}

// countOnly verifies just the match count (timed operations, whose rows
// were not decoded).
func countOnly(o op, count int64, scan func(index.Rect, func([]float64))) error {
	var n int64
	scan(o.rect, func([]float64) { n++ })
	if count != n {
		return fmt.Errorf("%s count %d, full scan finds %d", o.kind, count, n)
	}
	return nil
}
