package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/softfd"
)

// Mutation layer. The paper defers updates to future work (§9) but sketches
// the mechanism in §5: the learned models stay fixed (they were trained on
// a sample and remain valid while the data distribution holds), each row is
// classified against the existing margins, and it lands in — or is removed
// from — either the primary grid or the outlier index. Every mutation
// routes through the shared lifecycle.ValidateRow check and is recorded in
// the lifecycle tracker, whose drift counters tell the maintenance layer
// when the distribution has moved enough that the index is stale and due
// for a Rebuild (internal/lifecycle; the sharded engine swaps rebuilt
// epochs in online).

// ErrNotFound is returned by Delete and Update when no live row equals the
// given one.
var ErrNotFound = errors.New("core: row not found")

// initTracker creates the mutation/drift tracker with one residual
// accumulator per learned dependency; Build and the snapshot decoder both
// call it once the dependency layout is known.
func (c *COAX) initTracker() {
	c.tracker = lifecycle.NewTracker()
	for d, pm := range c.depends {
		if pm != nil {
			c.tracker.Track(d, pm.X, (pm.EpsLB+pm.EpsUB)/2)
		}
	}
}

// Insert adds one row to the index: inliers land in the primary grid's
// delta pages, model violators in the outlier index. Call Compact after a
// batch of mutations to restore fully contiguous primary cells; watch
// LifecycleStats for the drift signals that warrant a full Rebuild.
func (c *COAX) Insert(row []float64) error {
	if err := lifecycle.ValidateRow(c.dims, row); err != nil {
		return err
	}
	outlier, err := c.applyInsert(row)
	if err != nil {
		return err
	}
	c.tracker.ObserveInsert(outlier)
	c.observeResiduals(row)
	if obs.On() {
		obs.Inserts.Inc()
		if outlier {
			obs.InsertOutliers.Inc()
		}
	}
	return nil
}

// Delete removes the one live row exactly equal to row (bit-for-bit on all
// dimensions); with duplicates exactly one is removed per call. Main-page
// matches are tombstoned and filtered from every query at the visitor
// boundary until Compact or Rebuild drops them. Returns ErrNotFound when no
// live row matches.
func (c *COAX) Delete(row []float64) error {
	if err := lifecycle.ValidateRow(c.dims, row); err != nil {
		return err
	}
	if err := c.applyDelete(row); err != nil {
		return err
	}
	c.tracker.ObserveDelete()
	if obs.On() {
		obs.Deletes.Inc()
	}
	return nil
}

// Update atomically replaces one live row equal to old with new: the pair
// of partition changes happens before Update returns, and no query running
// after it can see both rows or neither (the single-index COAX is
// single-writer; the sharded engine serialises mutations per shard).
// Returns ErrNotFound (and changes nothing) when old is absent.
func (c *COAX) Update(old, new []float64) error {
	if err := lifecycle.ValidateRow(c.dims, old); err != nil {
		return err
	}
	if err := lifecycle.ValidateRow(c.dims, new); err != nil {
		return err
	}
	if err := c.applyDelete(old); err != nil {
		return err
	}
	if _, err := c.applyInsert(new); err != nil {
		// Lazy index creation failed: put the old row back so the update is
		// all-or-nothing. Re-insert can only fail the same lazy-init path,
		// and the structure it targets is the one the delete just touched,
		// which therefore exists.
		if _, rerr := c.applyInsert(old); rerr != nil {
			return fmt.Errorf("core: update lost row %v: %w", old, errors.Join(err, rerr))
		}
		return err
	}
	c.tracker.ObserveUpdate()
	c.observeResiduals(new)
	if obs.On() {
		obs.Updates.Inc()
	}
	return nil
}

// applyInsert classifies and stores one validated row, reporting whether it
// landed in the outlier partition.
func (c *COAX) applyInsert(row []float64) (outlier bool, err error) {
	if c.rowIsInlier(row) {
		if c.primary == nil {
			if err := c.initPrimary(row); err != nil {
				return false, err
			}
		} else if err := c.primary.Insert(row); err != nil {
			return false, err
		}
		extendBounds(&c.primaryBounds, row)
		c.primaryN++
		c.n++
		return false, nil
	}
	if c.outliers == nil {
		if err := c.initOutliers(row); err != nil {
			return true, err
		}
	} else if err := c.outliers.Insert(row); err != nil {
		return true, err
	}
	extendBounds(&c.outlierBounds, row)
	c.outlierN++
	c.n++
	return true, nil
}

// applyDelete removes one validated row from the partition its
// classification routes it to — the same deterministic routing Insert
// used, since the models are fixed between rebuilds.
func (c *COAX) applyDelete(row []float64) error {
	if c.rowIsInlier(row) {
		if c.primary == nil || !c.primary.Delete(row) {
			return ErrNotFound
		}
		c.primaryN--
		c.n--
		return nil
	}
	if c.outliers == nil || !c.outliers.Delete(row) {
		return ErrNotFound
	}
	c.outlierN--
	c.n--
	return nil
}

// observeResiduals scores one inserted row against every learned model so
// LifecycleStats can report residual drift.
func (c *COAX) observeResiduals(row []float64) {
	for d, pm := range c.depends {
		if pm == nil {
			continue
		}
		c.tracker.ObserveResidual(d, math.Abs(row[d]-pm.Predict(row[pm.X])))
	}
}

// Compact merges delta pages into main storage and drops tombstoned rows in
// the primary and outlier grids. A grid served from a mapped snapshot with a
// page that no longer reads stays exactly as it was; the snapshot's PageErr carries the cause, which is why
// the grid's own error is dropped here.
func (c *COAX) Compact() {
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
	}
	if c.primary != nil {
		_ = c.primary.Compact()
	}
	if c.outliers != nil {
		_ = c.outliers.Compact()
	}
	if track {
		obs.Compactions.Inc()
		obs.CompactSeconds.Observe(time.Since(start).Seconds())
	}
}

// Epoch reports how many rebuilds this index lineage has been through.
func (c *COAX) Epoch() uint64 { return c.epoch }

// LiveRows collects every live row into a fresh table — the input a Rebuild
// re-indexes. Row order is storage order, not insertion order. Column names
// carry over, so a rebuilt epoch keeps answering name-based queries.
func (c *COAX) LiveRows() *dataset.Table {
	cols := c.cols
	if len(cols) != c.dims {
		cols = make([]string, c.dims)
	}
	t := dataset.NewTable(cols)
	full := index.Full(c.dims)
	collect := func(row []float64) bool { t.Append(row); return true }
	if c.primary != nil {
		c.primary.Scan(full, collect, nil)
	}
	if c.outliers != nil {
		c.outliers.Scan(full, collect, nil)
	}
	return t
}

// minDetectRows is the smallest live set worth re-running soft-FD detection
// on; below it (or when detection fails) a Rebuild reuses the current
// models, so a rebuilt index always exists.
const minDetectRows = 64

// Rebuild constructs a fresh COAX over the live rows with the original
// build options, re-running soft-FD detection so the models, margins, and
// inlier/outlier split track the data that is actually there now. The
// receiver is not modified; the caller swaps the result in (the sharded
// engine does this RCU-style per shard). The new index starts a new
// lifecycle epoch with cleared mutation counters and a fresh staleness
// baseline.
func (c *COAX) Rebuild() (*COAX, error) {
	return c.RebuildFrom(c.LiveRows())
}

// RebuildFrom is Rebuild over a pre-collected live-row table — the sharded
// engine collects under its shard lock and builds with no locks held, so
// collection and construction must be separable.
func (c *COAX) RebuildFrom(live *dataset.Table) (*COAX, error) {
	fd := c.fd
	opt := c.opt
	if live.Len() >= minDetectRows {
		if fresh, err := softfd.Detect(live, opt.SoftFD); err == nil {
			fd = fresh
			// A forced sort dimension may have become dependent under the
			// fresh models; re-pick it from the new layout instead.
			opt.SortDim = -1
		}
	}
	next, err := BuildWithFD(live, fd, opt)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding epoch %d: %w", c.epoch+1, err)
	}
	next.epoch = c.epoch + 1
	return next, nil
}

// LifecycleStats reports the index's mutation and drift state — the health
// snapshot the staleness thresholds evaluate.
func (c *COAX) LifecycleStats() lifecycle.Stats {
	s := lifecycle.Stats{
		LiveRows:         c.n,
		PrimaryRows:      c.primaryN,
		OutlierRows:      c.outlierN,
		BaseOutlierRatio: c.baseOutlierRatio,
		Epoch:            c.epoch,
	}
	tomb := 0
	if c.primary != nil {
		tomb += c.primary.Tombstones()
	}
	if c.outliers != nil {
		tomb += c.outliers.Tombstones()
	}
	s.Tombstones = tomb
	s.StoredRows = c.n + tomb
	if c.n > 0 {
		s.OutlierRatio = float64(c.outlierN) / float64(c.n)
	}
	if s.StoredRows > 0 {
		s.TombstoneRatio = float64(tomb) / float64(s.StoredRows)
	}
	c.tracker.Snapshot(&s)
	return s
}

// initPrimary lazily creates the primary grid when the original build saw
// only outliers. The single seed row defines degenerate boundaries; the
// grid still answers correctly because rows are re-checked against every
// query rectangle.
func (c *COAX) initPrimary(row []float64) error {
	seed := dataset.NewTable(make([]string, c.dims))
	seed.Append(row)
	p, err := gridfile.Build(seed, gridfile.Config{
		GridDims:    c.primaryGridDims(),
		SortDim:     c.sortDim,
		CellsPerDim: c.primaryCells,
		Mode:        gridfile.Quantile,
		Label:       "COAX-primary",
	})
	if err != nil {
		return fmt.Errorf("core: lazily creating primary index: %w", err)
	}
	c.primary = p
	return nil
}

// initOutliers lazily creates the outlier index on the first outlying
// insert. A one-row grid gets the layout chooser's degenerate case: one
// page, sorted on the sort column.
func (c *COAX) initOutliers(row []float64) error {
	seed := dataset.NewTable(make([]string, c.dims))
	seed.Append(row)
	g, err := gridfile.Build(seed, c.outlierGridConfig(seed, seed.Len(), seed))
	if err != nil {
		return fmt.Errorf("core: lazily creating outlier grid: %w", err)
	}
	c.outliers = g
	return nil
}
