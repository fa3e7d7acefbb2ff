// Package dataset defines the in-memory table format shared by every index
// and provides the synthetic dataset generators that substitute for the
// paper's OSM and Airline extracts (see osm.go, airline.go and README.md's
// "Reproducing the paper (§8)"), plus a CSV loader for experimenting with
// real data.
package dataset

import (
	"fmt"
	"math"
)

// Table is an immutable-after-build collection of rows stored row-major in
// one contiguous buffer ("a contiguous block of virtual memory in a row
// store format", §6 of the paper).
type Table struct {
	Cols []string  // column names, len = Dims
	Data []float64 // row-major, len = N*Dims
	dims int
}

// NewTable creates an empty table with the given column names.
func NewTable(cols []string) *Table {
	c := make([]string, len(cols))
	copy(c, cols)
	return &Table{Cols: c, dims: len(cols)}
}

// View wraps an existing row-major buffer as a table without copying; the
// caller keeps ownership of both slices. len(data) must be a multiple of
// len(cols).
func View(cols []string, data []float64) *Table {
	if len(cols) > 0 && len(data)%len(cols) != 0 {
		panic(fmt.Sprintf("dataset: buffer length %d not divisible by %d columns", len(data), len(cols)))
	}
	return &Table{Cols: cols, Data: data, dims: len(cols)}
}

// Dims reports the number of columns.
func (t *Table) Dims() int { return t.dims }

// Len reports the number of rows.
func (t *Table) Len() int {
	if t.dims == 0 {
		return 0
	}
	return len(t.Data) / t.dims
}

// Row returns row i as a slice aliasing the table buffer.
func (t *Table) Row(i int) []float64 {
	return t.Data[i*t.dims : (i+1)*t.dims : (i+1)*t.dims]
}

// Append adds one row (copied) to the table.
func (t *Table) Append(row []float64) {
	if len(row) != t.dims {
		panic(fmt.Sprintf("dataset: row has %d values, table has %d columns", len(row), t.dims))
	}
	t.Data = append(t.Data, row...)
}

// Grow ensures the table has capacity for at least rows additional rows
// without reallocating — the capacity hint plumbed from sources that know
// their size (generators, sized CSV files), so chunked ingest does not pay
// append-doubling copies and transient 2× growth spikes.
func (t *Table) Grow(rows int) {
	if rows <= 0 || t.dims == 0 {
		return
	}
	need := len(t.Data) + rows*t.dims
	if cap(t.Data) >= need {
		return
	}
	grown := make([]float64, len(t.Data), need)
	copy(grown, t.Data)
	t.Data = grown
}

// Column extracts column j into a fresh slice.
func (t *Table) Column(j int) []float64 {
	n := t.Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = t.Data[i*t.dims+j]
	}
	return out
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// SizeBytes reports the payload size of the row data.
func (t *Table) SizeBytes() int64 { return int64(len(t.Data) * 8) }

// Validate checks that the table holds a whole number of finite-valued
// rows — what every index build requires of its input.
func (t *Table) Validate() error {
	if t.dims == 0 {
		return fmt.Errorf("dataset: table has no columns")
	}
	if len(t.Data)%t.dims != 0 {
		return fmt.Errorf("dataset: buffer length %d not divisible by dims %d", len(t.Data), t.dims)
	}
	return CheckFinite(t.Cols, t.Data, 0)
}

// CheckFinite returns an error naming the row and column of the first NaN
// or ±Inf in data, len(cols) values per row, whose first row is row
// firstRow of its table or stream. Tables and sources carry such values
// (ReadCSV parses them); an index refuses them, since a NaN has no place in
// the sorted order a grid page's binary search relies on.
func CheckFinite(cols []string, data []float64, firstRow int) error {
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			row, col := firstRow+i/len(cols), i%len(cols)
			if cols[col] != "" {
				return fmt.Errorf("dataset: row %d, column %d (%s) holds %v; an index takes finite values only", row, col, cols[col], v)
			}
			return fmt.Errorf("dataset: row %d, column %d holds %v; an index takes finite values only", row, col, v)
		}
	}
	return nil
}

// Slice returns a new table holding rows [lo, hi) copied out of t.
func (t *Table) Slice(lo, hi int) *Table {
	out := NewTable(t.Cols)
	out.Data = append(out.Data, t.Data[lo*t.dims:hi*t.dims]...)
	return out
}
