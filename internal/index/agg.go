package index

import (
	"fmt"
	"math/bits"
	"sort"
)

// Aggregation pushdown. An AggState folds rows into a running aggregate
// without ever materializing them: FoldBatch folds straight off a Batch's
// selection bitmap (COUNT is a popcount over the selection words;
// SUM/MIN/MAX walk only the set bits of the value column). FoldRow folds
// one row at a time — for callers that only have rows (a reference fold in
// tests) — performing the identical floating-point
// operations, so folding a scan's rows in its order gives the bits its
// batches give. Partial states from independent scans (the shards of a
// fan-out) merge deterministically with Merge.

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

// AggCell is one running aggregate: every fold maintains count, sum, and
// extrema together, so a single cell answers any op and AVG is free.
type AggCell struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// fold absorbs one value. The operation order (extrema update, then sum,
// then count) is the single definition FoldBatch and FoldRow share —
// bit-identical results depend on it.
func (c *AggCell) fold(v float64) {
	if c.Count == 0 {
		c.Min, c.Max = v, v
	} else {
		if v < c.Min {
			c.Min = v
		}
		if v > c.Max {
			c.Max = v
		}
	}
	c.Sum += v
	c.Count++
}

// merge absorbs another cell's state.
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

// FoldBatch folds every selected row of b into the state. Ungrouped COUNT
// never touches the page — it is a popcount over the selection words;
// every other shape walks only the set bits, reading just the columns the
// spec needs through the batch's steps (in a column-major window each is
// one contiguous run), and pulls only those, over the selected rows. An
// aggregate consumes every matching row, so it always reports that the
// scan should go on.
func (a *AggState) FoldBatch(b *Batch) bool {
	step := b.RowStep
	if a.Spec.Group < 0 {
		if a.Spec.Op == AggCount {
			for _, w := range b.Sel {
				a.All.Count += int64(bits.OnesCount64(w))
			}
			return true
		}
		b.Pull(a.Spec.Col)
		vals := b.Page[a.Spec.Col*b.ColStep:]
		for w, word := range b.Sel {
			base := w << 6
			for word != 0 {
				i := base + bits.TrailingZeros64(word)
				word &= word - 1
				a.All.fold(vals[i*step])
			}
		}
		return true
	}
	counting := a.Spec.Op == AggCount
	b.Pull(a.Spec.Group)
	keys := b.Page[a.Spec.Group*b.ColStep:]
	var vals []float64
	if !counting {
		b.Pull(a.Spec.Col)
		vals = b.Page[a.Spec.Col*b.ColStep:]
	}
	for w, word := range b.Sel {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			c := a.cell(keys[i*step])
			if counting {
				c.Count++
			} else {
				c.fold(vals[i*step])
			}
		}
	}
	return true
}

// FoldRow folds one row, performing exactly the operations FoldBatch
// performs per selected row; like FoldBatch it always reports true.
func (a *AggState) FoldRow(row []float64) bool {
	if a.Spec.Group < 0 {
		if a.Spec.Op == AggCount {
			a.All.Count++
		} else {
			a.All.fold(row[a.Spec.Col])
		}
		return true
	}
	c := a.cell(row[a.Spec.Group])
	if a.Spec.Op == AggCount {
		c.Count++
	} else {
		c.fold(row[a.Spec.Col])
	}
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
