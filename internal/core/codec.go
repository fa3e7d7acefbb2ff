package core

import (
	"fmt"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/rtree"
	"github.com/coax-index/coax/internal/softfd"
)

// Snapshot codec. A COAX index persists as independent sections — meta
// scalars, the soft-FD result, the primary grid, the outlier index, the
// lifecycle state — so the container (internal/mmapsnap) can frame and
// checksum each layer separately. Decoding proceeds in the same order:
// DecodeMeta produces a skeleton, the Attach methods hang the decoded
// layers onto it, and FinishDecode re-verifies the cross-layer invariants
// that Build guarantees by construction. The binio grid decoders
// (DecodeAttachPrimary, DecodeAttachOutliers, and the tombstone slots of
// DecodeAttachLifecycle) read only the format v1/v2 files that
// internal/snapshot converts. Outliers are always a grid file; an R-tree
// outlier payload from an older file is regridded on read
// (DecodeRegridOutliers), so nothing writes one.

// The meta section still carries the two parameters of the retired R-tree
// outlier kind, so files keep their bytes: kind 0 (grid) and node capacity
// 10 are written, kind 1 (R-tree) is accepted on read.
const (
	metaGridKind, metaRTreeKind = 0, 1
	metaRTreeCapacity           = 10
)

// EncodeMeta appends the index's scalar state and partition bounds to w.
func (c *COAX) EncodeMeta(w *binio.Writer) {
	w.Int(c.dims)
	w.Int(c.n)
	w.Int(c.sortDim)
	w.Int(c.primaryN)
	w.Int(c.outlierN)
	w.Int(c.primaryCells)
	w.Int(metaGridKind)
	w.Int(metaRTreeCapacity)
	w.Bool(c.primary != nil)
	w.Bool(c.outliers != nil)
	w.Float64s(c.primaryBounds.Min)
	w.Float64s(c.primaryBounds.Max)
	w.Float64s(c.outlierBounds.Min)
	w.Float64s(c.outlierBounds.Max)
}

// HasColumnNames reports whether the build table carried any non-empty
// column name; the snapshot encoder omits the names section otherwise.
func (c *COAX) HasColumnNames() bool {
	for _, name := range c.cols {
		if name != "" {
			return true
		}
	}
	return false
}

// EncodeColumns appends the column names to w.
func (c *COAX) EncodeColumns(w *binio.Writer) {
	w.Int(len(c.cols))
	for _, name := range c.cols {
		w.String(name)
	}
}

// DecodeAttachColumns reads a column-names section written by EncodeColumns
// and installs it; the name count must match the index dimensionality.
func (c *COAX) DecodeAttachColumns(r *binio.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != c.dims {
		return fmt.Errorf("core: snapshot names %d columns, index has %d dims", n, c.dims)
	}
	cols := make([]string, n)
	for i := range cols {
		cols[i] = r.String()
	}
	if err := r.Err(); err != nil {
		return err
	}
	c.cols = cols
	return nil
}

// HasPrimary reports whether the index carries a primary grid (false only
// when every row was an outlier).
func (c *COAX) HasPrimary() bool { return c.primary != nil }

// EncodeFD appends the detection result to w.
func (c *COAX) EncodeFD(w *binio.Writer) { softfd.EncodeResult(w, c.fd) }

// DecodeMeta reads a meta section written by EncodeMeta and returns a
// skeleton index awaiting its FD and index layers.
func DecodeMeta(r *binio.Reader) (*COAX, error) {
	c := &COAX{
		dims:         r.Int(),
		n:            r.Int(),
		sortDim:      r.Int(),
		primaryN:     r.Int(),
		outlierN:     r.Int(),
		primaryCells: r.Int(),
	}
	kind, rtreeCap := r.Int(), r.Int()
	wantPrimary := r.Bool()
	wantOutliers := r.Bool()
	c.primaryBounds = index.Rect{Min: r.Float64s(), Max: r.Float64s()}
	c.outlierBounds = index.Rect{Min: r.Float64s(), Max: r.Float64s()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if c.dims < 1 {
		return nil, fmt.Errorf("core: dims %d < 1", c.dims)
	}
	if c.primaryN < 0 || c.outlierN < 0 || c.primaryN+c.outlierN != c.n {
		return nil, fmt.Errorf("core: partition counts %d+%d do not sum to %d rows", c.primaryN, c.outlierN, c.n)
	}
	if c.sortDim < -1 || c.sortDim >= c.dims {
		return nil, fmt.Errorf("core: sort dimension %d out of range", c.sortDim)
	}
	if kind != metaGridKind && kind != metaRTreeKind {
		return nil, fmt.Errorf("core: unknown outlier index kind %d", kind)
	}
	c.rtreeOutliers = kind == metaRTreeKind
	if c.primaryCells < 1 || rtreeCap < 2 {
		return nil, fmt.Errorf("core: invalid build parameters (cells=%d, rtree cap=%d)", c.primaryCells, rtreeCap)
	}
	// A structure may outlive its last live row (deletes tombstone rather
	// than drop pages), so presence may exceed the live counts — but live
	// rows without a structure to hold them are corrupt.
	if (!wantPrimary && c.primaryN > 0) || (!wantOutliers && c.outlierN > 0) {
		return nil, fmt.Errorf("core: presence flags disagree with partition counts")
	}
	for _, b := range [][]float64{c.primaryBounds.Min, c.primaryBounds.Max, c.outlierBounds.Min, c.outlierBounds.Max} {
		if len(b) != c.dims {
			return nil, fmt.Errorf("core: partition bounds have %d dims, want %d", len(b), c.dims)
		}
	}
	return c, nil
}

// DecodeAttachFD reads an FD section and installs it, rebuilding the
// per-column dependency lookup exactly as BuildWithFD does.
func (c *COAX) DecodeAttachFD(r *binio.Reader) error {
	fd, err := softfd.DecodeResult(r, c.dims)
	if err != nil {
		return err
	}
	c.fd = fd
	c.depends = make([]*softfd.PairModel, c.dims)
	for gi := range c.fd.Groups {
		g := &c.fd.Groups[gi]
		for mi := range g.Models {
			m := &g.Models[mi]
			if c.depends[m.D] != nil {
				return fmt.Errorf("core: column %d is dependent in two groups", m.D)
			}
			c.depends[m.D] = m
		}
	}
	if c.sortDim >= 0 && c.depends[c.sortDim] != nil {
		return fmt.Errorf("core: sort dimension %d is a dependent column", c.sortDim)
	}
	return nil
}

// DecodeAttachPrimary reads a primary-grid section and installs it. The
// exact live-row count is checked in FinishDecode, after any lifecycle
// section has installed its tombstones; here only the stored count is
// bounded (stored rows can exceed the live count, never undercut it).
func (c *COAX) DecodeAttachPrimary(r *binio.Reader) error {
	g, err := gridfile.Decode(r)
	if err != nil {
		return err
	}
	return c.AttachPrimary(g)
}

// AttachPrimary installs an already-assembled primary grid (decoded from a
// binio payload or rebuilt around memory-mapped pages), applying the same
// bounds checks as DecodeAttachPrimary.
func (c *COAX) AttachPrimary(g *gridfile.GridFile) error {
	if g.Dims() != c.dims {
		return fmt.Errorf("core: primary grid has %d dims, index has %d", g.Dims(), c.dims)
	}
	if g.StoredRows() < c.primaryN {
		return fmt.Errorf("core: primary grid stores %d rows, meta says %d live", g.StoredRows(), c.primaryN)
	}
	c.primary = g
	return nil
}

// DecodeAttachOutliers reads a format v1/v2 outlier section and installs
// it: a grid, or an R-tree (meta kind 1) regridded. As with the primary,
// the exact live-row check waits for FinishDecode.
func (c *COAX) DecodeAttachOutliers(r *binio.Reader) error {
	if c.rtreeOutliers {
		return c.DecodeRegridOutliers(r)
	}
	g, err := gridfile.Decode(r)
	if err != nil {
		return err
	}
	return c.AttachOutliers(g)
}

// DecodeRegridOutliers reads an R-tree outlier payload — a format v1 file of
// meta kind 1, or a v3 "ortr" section — and installs its rows as an outlier
// grid laid out by the chooser every build uses, scored against the live
// rows of the primary already attached and these outliers. It must run
// after the primary is attached.
func (c *COAX) DecodeRegridOutliers(r *binio.Reader) error {
	rt, err := rtree.Decode(r)
	if err != nil {
		return err
	}
	if rt.Dims() != c.dims {
		return fmt.Errorf("core: outlier index has %d dims, index has %d", rt.Dims(), c.dims)
	}
	outliers := dataset.NewTable(make([]string, c.dims))
	rt.Scan(index.Full(c.dims), func(row []float64) bool { outliers.Append(row); return true }, nil)
	if outliers.Len() == 0 {
		return nil // a tree emptied by deletes: the next outlier insert creates the grid
	}
	rows := c.LiveRows()
	for i := range outliers.Len() {
		rows.Append(outliers.Row(i))
	}
	g, err := gridfile.Build(outliers, c.outlierGridConfig(outliers, outliers.Len(), rows))
	if err != nil {
		return fmt.Errorf("core: regridding R-tree outliers: %w", err)
	}
	return c.AttachOutliers(g)
}

// AttachOutliers installs an already-assembled outlier grid, applying the
// same bounds checks as DecodeAttachOutliers.
func (c *COAX) AttachOutliers(g *gridfile.GridFile) error {
	if g.Dims() != c.dims {
		return fmt.Errorf("core: outlier index has %d dims, index has %d", g.Dims(), c.dims)
	}
	if g.Len() < c.outlierN {
		return fmt.Errorf("core: outlier index holds %d rows, meta says %d live", g.Len(), c.outlierN)
	}
	c.outliers = g
	return nil
}

// DecodeAttachLifecycle reads a format v2 lifecycle section — the scalars
// of EncodeLifecycleScalars, then the tombstone slots of the primary and
// outlier grids — and installs it; it must run after the primary and
// outlier sections are attached so the tombstone slots have pages to land
// in.
func (c *COAX) DecodeAttachLifecycle(r *binio.Reader) error {
	if err := c.DecodeAttachLifecycleScalars(r); err != nil {
		return err
	}
	primaryDead := r.Int64s()
	outlierDead := r.Int64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(primaryDead) > 0 {
		if c.primary == nil {
			return fmt.Errorf("core: lifecycle section tombstones a missing primary grid")
		}
		if err := c.primary.SetDeadSlots(primaryDead); err != nil {
			return err
		}
	}
	if len(outlierDead) > 0 {
		if c.outliers == nil || c.rtreeOutliers {
			return fmt.Errorf("core: lifecycle section tombstones outliers that are not a stored grid")
		}
		if err := c.outliers.SetDeadSlots(outlierDead); err != nil {
			return err
		}
	}
	return nil
}

// EncodeLifecycleScalars appends the scalar lifecycle state — epoch,
// staleness baseline, mutation/drift tracker. An in-flight epoch rebuild is
// deliberately not persisted: the serving epoch already holds every
// mutation its delta log records, so after a load the compactor simply
// re-detects staleness and restarts the rebuild. Tombstones live as bitmaps
// inside the v3 page sections, not here.
func (c *COAX) EncodeLifecycleScalars(w *binio.Writer) {
	w.Uint64(c.epoch)
	w.Float64(c.baseOutlierRatio)
	c.tracker.Encode(w)
}

// DecodeAttachLifecycleScalars reads the scalar lifecycle state written by
// EncodeLifecycleScalars and installs it.
func (c *COAX) DecodeAttachLifecycleScalars(r *binio.Reader) error {
	c.epoch = r.Uint64()
	c.baseOutlierRatio = r.Float64()
	if err := r.Err(); err != nil {
		return err
	}
	if c.baseOutlierRatio < 0 || c.baseOutlierRatio > 1 {
		return fmt.Errorf("core: base outlier ratio %v out of range [0,1]", c.baseOutlierRatio)
	}
	tr, err := lifecycle.DecodeTracker(r, c.dims)
	if err != nil {
		return err
	}
	c.tracker = tr
	return nil
}

// FinishDecode verifies the assembled index is complete and internally
// consistent; it must be called after the attach steps (including the
// lifecycle section, whose tombstones the live-row checks account for).
func (c *COAX) FinishDecode() error {
	if c.depends == nil {
		return fmt.Errorf("core: snapshot is missing its FD section")
	}
	if c.primary == nil && c.primaryN > 0 {
		return fmt.Errorf("core: meta declares %d primary rows but no primary section", c.primaryN)
	}
	if c.outliers == nil && c.outlierN > 0 {
		return fmt.Errorf("core: meta declares %d outlier rows but no outlier section", c.outlierN)
	}
	if c.primary != nil && c.primary.Len() != c.primaryN {
		return fmt.Errorf("core: primary grid holds %d live rows, meta says %d", c.primary.Len(), c.primaryN)
	}
	if c.outliers != nil && c.outliers.Len() != c.outlierN {
		return fmt.Errorf("core: outlier index holds %d live rows, meta says %d", c.outliers.Len(), c.outlierN)
	}
	// Pre-lifecycle snapshots carry no tracker; start a fresh lifecycle at
	// the loaded state (the current outlier ratio becomes the baseline).
	if c.tracker == nil {
		c.initTracker()
		if c.n > 0 {
			c.baseOutlierRatio = float64(c.outlierN) / float64(c.n)
		}
	}
	// Rebuild needs the full options; the snapshot records the structural
	// parameters, so reconstruct those and fall back to the default
	// detector configuration (SortDim re-picks automatically on rebuild).
	c.opt = Options{
		SoftFD:             softfd.DefaultConfig(),
		PrimaryCellsPerDim: c.primaryCells,
		SortDim:            -1,
	}
	if c.primary != nil {
		wantDims := c.primaryGridDims()
		gotDims := c.primary.GridDims()
		if len(gotDims) != len(wantDims) {
			return fmt.Errorf("core: primary grid indexes %d dims, FD layout implies %d", len(gotDims), len(wantDims))
		}
		for i := range wantDims {
			if gotDims[i] != wantDims[i] {
				return fmt.Errorf("core: primary grid dimension %d is column %d, FD layout implies %d", i, gotDims[i], wantDims[i])
			}
		}
		if sd := c.primary.SortDim(); sd != c.sortDim {
			return fmt.Errorf("core: primary grid sorts on %d, meta says %d", sd, c.sortDim)
		}
	}
	return nil
}
