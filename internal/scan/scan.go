// Package scan provides the full-scan baseline: every row is checked
// against the query rectangle. It has zero directory overhead and serves as
// both the slowest baseline of Figure 6 and the correctness oracle for the
// property-based tests of every other index.
package scan

import (
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// Scan wraps a table as an index.Interface.
type Scan struct {
	t *dataset.Table
}

var _ index.Interface = (*Scan)(nil)

// New creates a full-scan "index" over t. The table is referenced, not
// copied.
func New(t *dataset.Table) *Scan { return &Scan{t: t} }

// Name implements index.Interface.
func (s *Scan) Name() string { return "FullScan" }

// Len implements index.Interface.
func (s *Scan) Len() int { return s.t.Len() }

// Dims implements index.Interface.
func (s *Scan) Dims() int { return s.t.Dims() }

// MemoryOverhead implements index.Interface; a scan keeps no directory.
func (s *Scan) MemoryOverhead() int64 { return 0 }

// BatchKernel implements index.Kernel.
func (s *Scan) BatchKernel() string { return "fullscan-batch" }

var _ index.ScanBatcher = (*Scan)(nil)

// ScanBatch implements index.ScanBatcher directly over the table's
// contiguous row-major slab: each window of index.BatchRows rows gets its
// selection bitmap from per-column range loops, with no per-row calls at
// all. Probe counters match Scan exactly (one page, every row scanned,
// matches counted); the abort hook is polled per batch.
func (s *Scan) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	dims := s.t.Dims()
	data := s.t.Data
	rows := s.t.Len()
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(rows)
	}
	var rect index.RectSel
	rect.Prepare(r)
	// One Batch per scan, refilled per window: a fresh one per window would
	// escape through yield and cost an allocation each.
	b := &index.Batch{Dims: dims, RowStep: dims, ColStep: 1}
	sel := make([]uint64, index.BatchWords(index.BatchRows))
	for off := 0; off < rows; off += index.BatchRows {
		if probe.Aborted() {
			return false
		}
		n := rows - off
		if n > index.BatchRows {
			n = index.BatchRows
		}
		b.Page, b.Rows, b.Sel = data[off*dims:(off+n)*dims], n, sel[:index.BatchWords(n)]
		tests := rect.Select(b)
		if probe != nil {
			probe.Matched += int64(b.Selected())
			probe.Batches++
			probe.ColumnTests += int64(tests)
		}
		if !yield(b) {
			return false
		}
	}
	return true
}

// Scan implements index.Interface by testing every row until yield stops
// the scan. It is the reference every engine's tests compare against, so it
// stays a plain Contains loop that shares no code with the batch kernels.
func (s *Scan) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	dims := s.t.Dims()
	data := s.t.Data
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(s.t.Len())
	}
	// A full scan has no pages; poll the abort hook every pageRows rows so
	// cancellation still lands at page-ish granularity.
	const pageRows = 4096
	sinceAbort := 0
	for off := 0; off < len(data); off += dims {
		if sinceAbort++; sinceAbort >= pageRows {
			sinceAbort = 0
			if probe.Aborted() {
				return false
			}
		}
		row := data[off : off+dims : off+dims]
		if r.Contains(row) {
			if probe != nil {
				probe.Matched++
			}
			if !yield(row) {
				return false
			}
		}
	}
	return true
}
