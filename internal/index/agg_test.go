package index

import (
	"math"
	"math/bits"
	"testing"
)

// fuzzValue maps one byte to a value a fold must order or add exactly: ±0,
// NaN, ±Inf, the largest and smallest magnitudes, or a small multiple of a
// huge, a tiny or a unit scale. With 256 values in all, ties are common.
func fuzzValue(b byte) float64 {
	specials := [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	if int(b) < len(specials) {
		return specials[b]
	}
	scales := [...]float64{1, 1e300, 1e-300, 0.1}
	return float64(int(b>>2)-32) * scales[b&3]
}

// fuzzWord makes selection word w of a window from one control byte: empty,
// all ones, or a pattern the byte and w seed.
func fuzzWord(c byte, w int) uint64 {
	switch c & 3 {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	}
	x := uint64(c)<<32 ^ uint64(w)*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>29
}

// FuzzAggFold holds FoldBatch to FoldRow over the selected rows in index
// order, bit for bit, for all five ops, ungrouped and grouped, over
// column-major (unit-stride) and row-major windows; and every field
// outside the op to zero. The page is cut into two windows, so the second
// batch folds into a state the first one seeded.
func FuzzAggFold(f *testing.F) {
	ramp := make([]byte, 200)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(ramp, []byte{1, 1, 1, 1}, uint8(1), uint8(0), uint8(0))
	f.Add(ramp, []byte{1, 2, 0, 3}, uint8(2), uint8(1), uint8(70))
	f.Add(ramp, []byte{3, 1}, uint8(3), uint8(2), uint8(64))
	f.Add(ramp[:70], []byte{}, uint8(4), uint8(3), uint8(5))
	f.Add([]byte{1, 0, 2, 0, 1}, []byte{1}, uint8(2), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, vals, sel []byte, op, shape, cut uint8) {
		if len(vals) > 4*64 {
			vals = vals[:4*64]
		}
		const dims, col, group = 3, 1, 2
		m := len(vals)
		rowMajor, grouped := shape&1 != 0, shape&2 != 0
		at := func(i, k int) int {
			if rowMajor {
				return i*dims + k
			}
			return k*m + i
		}
		page := make([]float64, m*dims)
		for i, b := range vals {
			page[at(i, 0)] = float64(i)
			page[at(i, col)] = fuzzValue(b)
			page[at(i, group)] = float64(b % 5) // finite keys: a NaN key is a new group every time
		}
		spec := AggSpec{Op: AggOp(op % 5), Col: col, Group: -1}
		if spec.Op == AggCount {
			spec.Col = -1
		}
		if grouped {
			spec.Group = group
		}
		batch, byRow := NewAggState(spec), NewAggState(spec)
		ctl := 0
		split := min(int(cut), m)
		for _, win := range [][2]int{{0, split}, {split, m}} {
			lo, hi := win[0], win[1]
			if lo == hi {
				continue
			}
			n := hi - lo
			b := &Batch{Page: page[at(lo, 0):], Dims: dims, Rows: n, RowStep: 1, ColStep: m, Sel: make([]uint64, BatchWords(n))}
			if rowMajor {
				b.RowStep, b.ColStep = dims, 1
			}
			for w := range b.Sel {
				word := ^uint64(0)
				if len(sel) > 0 {
					word = fuzzWord(sel[ctl%len(sel)], ctl)
					ctl++
				}
				if tail := n - w<<6; tail < 64 {
					word &= 1<<tail - 1
				}
				b.Sel[w] = word
			}
			batch.FoldBatch(b)
			row := make([]float64, dims)
			for w, word := range b.Sel {
				for ; word != 0; word &= word - 1 {
					i := lo + w<<6 + bits.TrailingZeros64(word)
					for k := range row {
						row[k] = page[at(i, k)]
					}
					byRow.FoldRow(row)
				}
			}
		}

		same := func(a, b *AggCell) bool {
			return a.Count == b.Count && math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
				math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max)
		}
		keepsSum, keepsMin, keepsMax := spec.Op == AggSum || spec.Op == AggAvg, spec.Op == AggMin, spec.Op == AggMax
		onlyOwn := func(c *AggCell) bool {
			return (keepsSum || math.Float64bits(c.Sum) == 0) && (keepsMin || math.Float64bits(c.Min) == 0) &&
				(keepsMax || math.Float64bits(c.Max) == 0)
		}
		if !same(&batch.All, &byRow.All) || !onlyOwn(&batch.All) || len(batch.Groups) != len(byRow.Groups) {
			t.Fatalf("%+v (row-major %v): FoldBatch %+v in %d groups, FoldRow %+v in %d",
				spec, rowMajor, batch.All, len(batch.Groups), byRow.All, len(byRow.Groups))
		}
		if grouped && batch.All != (AggCell{}) {
			t.Fatalf("%+v: a grouped fold touched All: %+v", spec, batch.All)
		}
		for k, want := range byRow.Groups {
			if got := batch.Groups[k]; got == nil || !same(got, want) || !onlyOwn(got) {
				t.Fatalf("%+v (row-major %v) group %v: FoldBatch %+v, FoldRow %+v", spec, rowMajor, k, got, want)
			}
		}
	})
}
