package index

import (
	"fmt"
	"math/bits"
	"sort"
)

// Aggregation pushdown. An AggState folds rows into a running aggregate
// without ever materializing them: FoldBatch folds straight off a Batch's
// selection bitmap. COUNT is a popcount over the selection words; SUM,
// AVG, MIN and MAX read the value column at the selected rows only — a
// fully selected 64-row word of a unit-stride window as one in-order run
// of 64 values, any other word by walking its set bits. Each op keeps
// only its own fields (see AggCell). FoldRow folds one row at a time — for
// callers that only have rows (a reference fold in tests) — performing the
// identical floating-point operations, so folding a scan's rows in its
// order gives the bits its batches give. Partial states from independent
// scans (the shards of a fan-out) merge deterministically with Merge.

// AggOp enumerates the supported aggregates.
type AggOp uint8

const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the op as it appears on the wire ("count", "sum", ...).
func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("aggop(%d)", uint8(op))
}

// ParseAggOp inverts String.
func ParseAggOp(s string) (AggOp, error) {
	switch s {
	case "count":
		return AggCount, nil
	case "sum":
		return AggSum, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "avg":
		return AggAvg, nil
	}
	return 0, fmt.Errorf("index: unknown aggregate op %q (want count, sum, min, max, or avg)", s)
}

// NeedsColumn reports whether the op reads a value column (COUNT does not).
func (op AggOp) NeedsColumn() bool { return op != AggCount }

// AggSpec describes one aggregation: the op, the value column it reads
// (ignored for COUNT; use -1), and an optional group-by column (-1 for an
// ungrouped aggregate). The group column should be categorical — every
// distinct value becomes one group.
type AggSpec struct {
	Op    AggOp
	Col   int
	Group int
}

// Validate checks the spec against a row dimensionality.
func (s AggSpec) Validate(dims int) error {
	if s.Op.NeedsColumn() && (s.Col < 0 || s.Col >= dims) {
		return fmt.Errorf("index: aggregate column %d out of range [0,%d)", s.Col, dims)
	}
	if s.Group >= dims {
		return fmt.Errorf("index: group-by column %d out of range [0,%d)", s.Group, dims)
	}
	return nil
}

// AggCell is one running aggregate. A fold keeps only the fields its op
// defines and leaves the others zero: COUNT keeps Count, SUM and AVG keep
// Sum and Count, MIN keeps Min and Count, MAX keeps Max and Count. So a
// cell answers the op it was folded for, and no other.
type AggCell struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// add folds one value under op: the per-row definition FoldRow and the
// grouped FoldBatch share, and which the ungrouped FoldBatch's loops
// repeat value for value. v is ignored under COUNT. MIN and MAX compare
// with < and > against a running value the first one seeds, never with
// the builtin min and max, which order NaN and ±0 differently.
func (c *AggCell) add(op AggOp, v float64) {
	switch op {
	case AggSum, AggAvg:
		c.Sum += v
	case AggMin:
		if c.Count == 0 || v < c.Min {
			c.Min = v
		}
	case AggMax:
		if c.Count == 0 || v > c.Max {
			c.Max = v
		}
	}
	c.Count++
}

// merge absorbs another cell's state. Both cells were folded under the
// same op, so the fields it leaves zero stay zero.
func (c *AggCell) merge(o *AggCell) {
	if o.Count == 0 {
		return
	}
	if c.Count == 0 {
		*c = *o
		return
	}
	if o.Min < c.Min {
		c.Min = o.Min
	}
	if o.Max > c.Max {
		c.Max = o.Max
	}
	c.Sum += o.Sum
	c.Count += o.Count
}

// Value extracts the cell's aggregate under op; ok is false when the
// aggregate is undefined (MIN/MAX/AVG over zero rows).
func (c *AggCell) Value(op AggOp) (v float64, ok bool) {
	switch op {
	case AggCount:
		return float64(c.Count), true
	case AggSum:
		return c.Sum, true
	case AggMin:
		return c.Min, c.Count > 0
	case AggMax:
		return c.Max, c.Count > 0
	case AggAvg:
		if c.Count == 0 {
			return 0, false
		}
		return c.Sum / float64(c.Count), true
	}
	return 0, false
}

// AggState is the running state of one aggregation execution (or one
// shard's partial). Not safe for concurrent use; fan-outs give each worker
// its own state and Merge at the gather point.
type AggState struct {
	Spec AggSpec
	// All is the ungrouped aggregate; untouched when Spec.Group >= 0.
	All AggCell
	// Groups maps group key → cell; non-nil exactly when Spec.Group >= 0.
	Groups map[float64]*AggCell
}

// NewAggState returns an empty state for spec.
func NewAggState(spec AggSpec) *AggState {
	st := &AggState{Spec: spec}
	if spec.Group >= 0 {
		st.Groups = make(map[float64]*AggCell)
	}
	return st
}

// cell returns (allocating on first use) the cell for a group key.
func (a *AggState) cell(key float64) *AggCell {
	c := a.Groups[key]
	if c == nil {
		c = &AggCell{}
		a.Groups[key] = c
	}
	return c
}

// FoldBatch folds every selected row of b into the state, reading just
// the columns the spec needs through the batch's steps (in a column-major
// window each is one contiguous run), and pulls only those, over the
// selected rows. Ungrouped COUNT never touches the page. An aggregate
// consumes every matching row, so it always reports that the scan should
// go on.
func (a *AggState) FoldBatch(b *Batch) bool {
	if a.Spec.Group >= 0 {
		a.foldGroups(b)
		return true
	}
	var n int64
	for _, w := range b.Sel {
		n += int64(bits.OnesCount64(w))
	}
	c := &a.All
	seeded := c.Count > 0
	c.Count += n
	op := a.Spec.Op
	if op == AggCount || n == 0 {
		return true
	}
	b.Pull(a.Spec.Col)
	vals := b.Page[a.Spec.Col*b.ColStep:]
	switch op {
	case AggSum, AggAvg:
		c.Sum = foldSum(c.Sum, vals, b.Sel, b.RowStep)
	case AggMin:
		if !seeded {
			first, _ := SelRange(b.Sel)
			c.Min = vals[first*b.RowStep]
		}
		c.Min = foldMin(c.Min, vals, b.Sel, b.RowStep)
	case AggMax:
		if !seeded {
			first, _ := SelRange(b.Sel)
			c.Max = vals[first*b.RowStep]
		}
		c.Max = foldMax(c.Max, vals, b.Sel, b.RowStep)
	}
	return true
}

// foldSum adds the selected values to s in index order, a fully selected
// word of a unit-stride window as one run.
func foldSum(s float64, vals []float64, sel []uint64, step int) float64 {
	for w, word := range sel {
		base := w << 6
		if word == ^uint64(0) && step == 1 {
			for _, v := range vals[base : base+64] {
				s += v
			}
			continue
		}
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			s += vals[i*step]
		}
	}
	return s
}

// foldMin lowers m to the least selected value, keeping the earliest of
// equals and ignoring NaN unless m is one, as a row-by-row fold does.
func foldMin(m float64, vals []float64, sel []uint64, step int) float64 {
	for w, word := range sel {
		base := w << 6
		if word == ^uint64(0) && step == 1 {
			for _, v := range vals[base : base+64] {
				if v < m {
					m = v
				}
			}
			continue
		}
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if v := vals[i*step]; v < m {
				m = v
			}
		}
	}
	return m
}

// foldMax is foldMin's mirror.
func foldMax(m float64, vals []float64, sel []uint64, step int) float64 {
	for w, word := range sel {
		base := w << 6
		if word == ^uint64(0) && step == 1 {
			for _, v := range vals[base : base+64] {
				if v > m {
					m = v
				}
			}
			continue
		}
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if v := vals[i*step]; v > m {
				m = v
			}
		}
	}
	return m
}

// foldGroups is FoldBatch for a grouped state: it walks the set bits,
// folding each row into its group's cell.
func (a *AggState) foldGroups(b *Batch) {
	step, op := b.RowStep, a.Spec.Op
	b.Pull(a.Spec.Group)
	keys := b.Page[a.Spec.Group*b.ColStep:]
	vals := keys // read, and ignored, under COUNT
	if op.NeedsColumn() {
		b.Pull(a.Spec.Col)
		vals = b.Page[a.Spec.Col*b.ColStep:]
	}
	for w, word := range b.Sel {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			a.cell(keys[i*step]).add(op, vals[i*step])
		}
	}
}

// FoldRow folds one row, performing exactly the operations FoldBatch
// performs per selected row; like FoldBatch it always reports true.
func (a *AggState) FoldRow(row []float64) bool {
	c := &a.All
	if a.Spec.Group >= 0 {
		c = a.cell(row[a.Spec.Group])
	}
	var v float64
	if a.Spec.Op.NeedsColumn() {
		v = row[a.Spec.Col]
	}
	c.add(a.Spec.Op, v)
	return true
}

// Merge absorbs another state's partial into a. Callers merging several
// partials must do so in a deterministic order (the fan-out merges in
// shard order) so floating-point sums reproduce run to run.
func (a *AggState) Merge(o *AggState) {
	if o == nil {
		return
	}
	a.All.merge(&o.All)
	for k, oc := range o.Groups {
		a.cell(k).merge(oc)
	}
}

// Rows reports the number of rows folded so far (total across groups).
func (a *AggState) Rows() int64 {
	if a.Spec.Group < 0 {
		return a.All.Count
	}
	var n int64
	for _, c := range a.Groups {
		n += c.Count
	}
	return n
}

// GroupKeys returns the group keys in ascending order — the deterministic
// presentation order of a grouped result.
func (a *AggState) GroupKeys() []float64 {
	keys := make([]float64, 0, len(a.Groups))
	for k := range a.Groups {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}
