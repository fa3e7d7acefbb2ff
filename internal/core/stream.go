// The one build path. Every index is built by streaming each row once into
// its final placement, against dependencies and grid boundaries learned
// from a row sample; the in-memory build (BuildWithFD) passes the table as
// its own sample, so its boundaries are exact quantiles and its partitions
// are sized exactly. Sampling and soft-FD detection happen before a
// StreamBuilder exists: the caller draws a sample (reservoir or prefix),
// detects dependencies on it, and hands both here. Inliers then go straight
// into the primary grid file's own storage through a gridfile.Streamer;
// outliers stream the same way into the outlier grid, or — when the stream
// length is unknown, so the outlier count that sizes the grid's layout is
// too — accumulate in a staging table, bounded by construction: an accepted
// dependency keeps at least MinInlierFrac of the data primary. Nothing but
// the finished index holds the streamed rows.
package core

import (
	"fmt"
	"slices"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/softfd"
)

// StreamBuilder constructs a COAX index from a stream of rows against
// pre-detected dependencies. It is single-goroutine; the sharded streaming
// build runs one per shard.
type StreamBuilder struct {
	c          *COAX
	primary    *gridfile.Streamer
	outStream  *gridfile.Streamer // outliers streamed like the primary
	outStaging *dataset.Table     // or, with no length hint, buffered until Finish
	sample     *dataset.Table     // with outStaging: scores the staged grid's layout
	n          int
}

// NewStreamBuilder prepares a streaming build. sample must be a non-empty
// row sample of the incoming stream (it seeds the primary and outlier grid
// boundaries); fd holds the dependencies detected on that sample.
// totalHint ≥ 0 preallocates for the expected stream length and sizes the
// outlier grid from the outlier count it implies at the sampled rate; pass
// -1 when unknown (outliers then fall back to staging, since the grid's
// layout needs a size estimate).
func NewStreamBuilder(cols []string, fd softfd.Result, sample *dataset.Table, opt Options, totalHint int) (*StreamBuilder, error) {
	if sample.Len() == 0 {
		return nil, fmt.Errorf("core: streaming build needs a non-empty sample")
	}
	if len(cols) != sample.Dims() {
		return nil, fmt.Errorf("core: %d column names for a %d-column sample", len(cols), sample.Dims())
	}
	c, err := newSkeleton(cols, sample.Dims(), fd, opt)
	if err != nil {
		return nil, err
	}
	b := &StreamBuilder{c: c}

	// Classify the sample once: its inlier rows seed the primary grid
	// boundaries and its outlier rate sizes the outlier structures.
	inlier := make([]bool, sample.Len())
	inliers := 0
	for i := range inlier {
		if c.rowIsInlier(sample.Row(i)) {
			inlier[i] = true
			inliers++
		}
	}
	inlierFrac := float64(inliers) / float64(sample.Len())

	primaryCfg := gridfile.Config{
		GridDims:    c.primaryGridDims(),
		SortDim:     c.sortDim,
		CellsPerDim: opt.PrimaryCellsPerDim,
		Mode:        gridfile.Quantile,
		Label:       "COAX-primary",
	}
	// A sample as long as the stream is the stream itself (BuildWithFD), so
	// both partitions' sizes are known exactly. Otherwise the capacity hints
	// carry slack: the sampled inlier fraction is an estimate, and a hint
	// that undershoots by even one row would trigger an append-growth whose
	// copy transiently doubles the largest buffer — the exact spike
	// streaming exists to avoid. Both are clamped to the stream length.
	primaryHint := -1
	outlierHint := -1
	switch {
	case totalHint == sample.Len():
		primaryHint, outlierHint = inliers, totalHint-inliers
	case totalHint >= 0:
		primaryHint = min(int(float64(totalHint)*inlierFrac*1.05)+4096, totalHint+1)
		outlierHint = min(int(float64(totalHint)*(1-inlierFrac)*1.25)+4096, totalHint+1)
	}
	b.primary, err = newSampleStreamer(sample, inlier, true, primaryCfg, primaryHint)
	if err != nil {
		return nil, fmt.Errorf("core: preparing primary streamer: %w", err)
	}

	// Outliers: the outlier grid streams against sample-estimated
	// boundaries whenever its layout can be chosen up front — explicitly
	// configured, or from the sample and an outlier count estimated from a
	// stream length. Otherwise (unknown length) rows stage in a table whose
	// size the accepted dependencies bound.
	if opt.OutlierCellsPerDim >= 1 || totalHint >= 0 {
		sampleOutliers := dataset.NewTable(sample.Cols)
		for i, in := range inlier {
			if !in {
				sampleOutliers.Append(sample.Row(i))
			}
		}
		estOutliers := 0
		if totalHint >= 0 {
			estOutliers = int(int64(totalHint) * int64(sampleOutliers.Len()) / int64(sample.Len()))
		}
		outCfg := c.outlierGridConfig(sampleOutliers, estOutliers, sample)
		b.outStream, err = newSampleStreamer(sample, inlier, false, outCfg, outlierHint)
		if err != nil {
			return nil, fmt.Errorf("core: preparing outlier streamer: %w", err)
		}
	} else {
		b.sample = sample
		b.outStaging = dataset.NewTable(sample.Cols)
		if outlierHint > 0 {
			b.outStaging.Grow(outlierHint)
		}
	}
	return b, nil
}

// newSampleStreamer builds a gridfile.Streamer whose boundaries are
// quantiles of the sample rows in the wanted class (inliers for the
// primary, outliers for the outlier grid), falling back to the whole
// sample when that class sampled empty — boundary clamping keeps any later
// value routable.
func newSampleStreamer(sample *dataset.Table, inlier []bool, wantInlier bool, cfg gridfile.Config, capacityRows int) (*gridfile.Streamer, error) {
	keep := func(i int) bool { return inlier[i] == wantInlier }
	if !slices.Contains(inlier, wantInlier) { // the class sampled empty
		keep = nil
	}
	bounds, err := gridfile.TableBounds(sample, keep, cfg)
	if err != nil {
		return nil, err
	}
	return gridfile.NewStreamer(sample.Dims(), cfg, bounds, capacityRows)
}

// Add streams one row (copied) into the build, classifying it against the
// learned dependencies into the primary or the outlier partition.
func (b *StreamBuilder) Add(row []float64) {
	if len(row) != b.c.dims {
		panic(fmt.Sprintf("core: row has %d values, builder has %d dims", len(row), b.c.dims))
	}
	b.n++
	if b.c.rowIsInlier(row) {
		b.primary.Add(row)
		extendBounds(&b.c.primaryBounds, row)
		return
	}
	if b.outStream != nil {
		b.outStream.Add(row)
	} else {
		b.outStaging.Append(row)
	}
	extendBounds(&b.c.outlierBounds, row)
}

// Rows reports how many rows have been streamed in.
func (b *StreamBuilder) Rows() int { return b.n }

// Finish assembles the index. A builder that received no rows yields an
// empty skeleton (as BuildWithFD does over an empty shard table) so
// sharded builds can keep empty shards insertable; the public API rejects
// zero-row single builds before calling Finish.
func (b *StreamBuilder) Finish() (*COAX, error) {
	c := b.c
	c.n = b.n
	c.primaryN = b.primary.Rows()
	c.outlierN = c.n - c.primaryN
	if c.n > 0 {
		c.baseOutlierRatio = float64(c.outlierN) / float64(c.n)
	}

	if c.primaryN > 0 {
		p, err := b.primary.Finish()
		if err != nil {
			return nil, fmt.Errorf("core: building primary index: %w", err)
		}
		c.primary = p
	}
	b.primary = nil

	if c.outlierN > 0 {
		if b.outStream != nil {
			out, err := b.outStream.Finish()
			if err != nil {
				return nil, fmt.Errorf("core: building outlier index: %w", err)
			}
			c.outliers = out
		} else {
			out, err := gridfile.Build(b.outStaging, c.outlierGridConfig(b.outStaging, b.outStaging.Len(), b.sample))
			if err != nil {
				return nil, fmt.Errorf("core: building outlier index: %w", err)
			}
			c.outliers = out
		}
	}
	b.outStream, b.outStaging, b.sample = nil, nil, nil
	return c, nil
}
