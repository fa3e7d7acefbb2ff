// Package lifecycle is the unified mutation/maintenance subsystem shared by
// every mutable layer of the repository. COAX's query speed rests on the
// outlier set staying small relative to the inliers (the paper's memory rule
// and the Figure 6 ablations), but a sustained write workload drifts the
// data away from the models learned at build time and silently degenerates
// the index toward an outlier scan. This package owns everything the layers
// need to change over time without degenerating:
//
//   - ValidateRow, the single row-validation path used by core, shard, and
//     the HTTP server (previously copy-pasted per layer);
//   - Tracker, the live mutation counters — inserts, deletes, updates,
//     outlier-bound inserts, per-dependent-column model residuals — from
//     which drift is computed;
//   - Stats and Thresholds, the health snapshot and the rules that mark an
//     index "stale" and due for a rebuild;
//   - DeltaLog, the mutation log replayed into a freshly rebuilt epoch
//     before it is atomically swapped in (internal/shard);
//   - Compactor, the background goroutine that polls for stale shards and
//     rebuilds them off the query path.
package lifecycle

import (
	"fmt"
	"math"
	"strings"
)

// RowError describes an invalid row; every mutation path returns it so
// callers can distinguish bad input from index failures.
type RowError struct {
	Reason string
}

func (e *RowError) Error() string { return "lifecycle: invalid row: " + e.Reason }

// ValidateRow is the shared row-validation path: the row must have exactly
// dims values, every one of them finite. core.COAX, shard.Sharded, and
// cmd/coaxserve all route mutations through this one check.
func ValidateRow(dims int, row []float64) error {
	if len(row) != dims {
		return &RowError{Reason: fmt.Sprintf("has %d values, index has %d dims", len(row), dims)}
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &RowError{Reason: fmt.Sprintf("value %d is not finite", i)}
		}
	}
	return nil
}

// RowsEqual is the mutation layer's exact-match contract: two rows are the
// same row iff every dimension compares equal with ==. Validated rows hold
// no NaNs, so bit-for-bit inserted values always match themselves. The
// grid file's Delete (main and overflow pages) matches through this one
// helper so the semantics cannot drift between them.
func RowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Thresholds configures when an index counts as stale. The zero value never
// marks anything stale; start from DefaultThresholds.
type Thresholds struct {
	// MaxOutlierRatio is the outlier fraction (outlier rows / live rows)
	// beyond which the index is stale — the paper's memory rule presumes a
	// small outlier set, so a growing ratio is the primary drift signal.
	MaxOutlierRatio float64 `json:"max_outlier_ratio"`
	// MinOutlierGain guards against rebuild loops on data whose best build
	// already exceeds MaxOutlierRatio: the ratio must also have grown by at
	// least this much over the ratio measured at build time.
	MinOutlierGain float64 `json:"min_outlier_gain"`
	// MaxTombstoneRatio is the dead fraction (tombstoned rows / stored
	// rows) beyond which queries waste too much time skipping corpses.
	MaxTombstoneRatio float64 `json:"max_tombstone_ratio"`
	// MaxResidualDrift bounds the mean absolute model residual of inserted
	// rows, normalised by each model's margin width; values above 1 mean
	// the typical new row lands outside the learned band.
	MaxResidualDrift float64 `json:"max_residual_drift"`
	// MinMutations is the number of mutations that must have landed since
	// the last build before staleness is evaluated at all, so a handful of
	// unlucky inserts cannot trigger a rebuild of a huge index.
	MinMutations int64 `json:"min_mutations"`
}

// DefaultThresholds returns the staleness rules used by the serving layer.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MaxOutlierRatio:   0.20,
		MinOutlierGain:    0.05,
		MaxTombstoneRatio: 0.30,
		MaxResidualDrift:  1.0,
		MinMutations:      256,
	}
}

// GroupDrift reports how far inserted rows have drifted from one learned
// dependency since the last build.
type GroupDrift struct {
	Predictor int `json:"predictor"`
	Dependent int `json:"dependent"`
	// MarginWidth is (EpsLB+EpsUB)/2, the model's learned half-band.
	MarginWidth float64 `json:"margin_width"`
	// MeanAbsResidual is the mean |d − ψ̂(x)| over rows inserted since the
	// last build.
	MeanAbsResidual float64 `json:"mean_abs_residual"`
	// Samples counts the inserts the mean is computed over.
	Samples int64 `json:"samples"`
}

// Drift is MeanAbsResidual normalised by the margin width; > 1 means the
// typical inserted row violates the model.
func (g GroupDrift) Drift() float64 {
	if g.MarginWidth <= 0 || g.Samples == 0 {
		return 0
	}
	return g.MeanAbsResidual / g.MarginWidth
}

// Stats is the lifecycle health snapshot of one index (or, aggregated, of a
// sharded engine).
type Stats struct {
	// LiveRows counts rows a query can match; StoredRows additionally
	// counts tombstoned rows still occupying pages.
	LiveRows    int `json:"live_rows"`
	StoredRows  int `json:"stored_rows"`
	Tombstones  int `json:"tombstones"`
	PrimaryRows int `json:"primary_rows"`
	OutlierRows int `json:"outlier_rows"`

	// Mutation counters since the last build/rebuild.
	Inserts        int64 `json:"inserts"`
	Deletes        int64 `json:"deletes"`
	Updates        int64 `json:"updates"`
	InsertOutliers int64 `json:"insert_outliers"`

	// OutlierRatio is OutlierRows/LiveRows; BaseOutlierRatio is the same
	// ratio measured when the index was built.
	OutlierRatio     float64 `json:"outlier_ratio"`
	BaseOutlierRatio float64 `json:"base_outlier_ratio"`
	// TombstoneRatio is Tombstones/StoredRows.
	TombstoneRatio float64 `json:"tombstone_ratio"`

	// Drift lists per-dependency residual drift of inserted rows.
	Drift []GroupDrift `json:"drift,omitempty"`

	// Epoch counts rebuilds this index has been through (aggregated: the
	// sum over shards); Rebuilding reports an in-flight epoch swap.
	Epoch      uint64 `json:"epoch"`
	Rebuilding bool   `json:"rebuilding"`
}

// Mutations is the total mutation count since the last build.
func (s Stats) Mutations() int64 { return s.Inserts + s.Deletes + s.Updates }

// MaxDrift returns the largest per-dependency drift.
func (s Stats) MaxDrift() float64 {
	m := 0.0
	for _, g := range s.Drift {
		if d := g.Drift(); d > m {
			m = d
		}
	}
	return m
}

// Stale evaluates s against th and, when stale, lists the human-readable
// reasons — the operator-facing explanation surfaced by /stats and logged
// by the compactor.
func (s Stats) Stale(th Thresholds) (bool, []string) {
	if s.Mutations() < th.MinMutations {
		return false, nil
	}
	var reasons []string
	if th.MaxOutlierRatio > 0 &&
		s.OutlierRatio > th.MaxOutlierRatio &&
		s.OutlierRatio > s.BaseOutlierRatio+th.MinOutlierGain {
		reasons = append(reasons, fmt.Sprintf("outlier ratio %.3f exceeds %.3f (built at %.3f)",
			s.OutlierRatio, th.MaxOutlierRatio, s.BaseOutlierRatio))
	}
	if th.MaxTombstoneRatio > 0 && s.TombstoneRatio > th.MaxTombstoneRatio {
		reasons = append(reasons, fmt.Sprintf("tombstone ratio %.3f exceeds %.3f",
			s.TombstoneRatio, th.MaxTombstoneRatio))
	}
	if th.MaxResidualDrift > 0 {
		for _, g := range s.Drift {
			if d := g.Drift(); d > th.MaxResidualDrift {
				reasons = append(reasons, fmt.Sprintf("column %d residual drift %.2f exceeds %.2f",
					g.Dependent, d, th.MaxResidualDrift))
			}
		}
	}
	return len(reasons) > 0, reasons
}

// StaleReason joins the staleness reasons for logs.
func StaleReason(reasons []string) string { return strings.Join(reasons, "; ") }

// Merge aggregates per-shard stats into one engine-wide snapshot: counts
// and epochs sum, ratios are recomputed over the summed counts, drift
// entries are merged by (predictor, dependent) column pair weighted by
// sample count, and Rebuilding is true when any shard is mid-swap.
func Merge(per []Stats) Stats {
	var out Stats
	type key struct{ p, d int }
	drift := make(map[key]*GroupDrift)
	var driftOrder []key
	for _, s := range per {
		out.LiveRows += s.LiveRows
		out.StoredRows += s.StoredRows
		out.Tombstones += s.Tombstones
		out.PrimaryRows += s.PrimaryRows
		out.OutlierRows += s.OutlierRows
		out.Inserts += s.Inserts
		out.Deletes += s.Deletes
		out.Updates += s.Updates
		out.InsertOutliers += s.InsertOutliers
		out.Epoch += s.Epoch
		out.Rebuilding = out.Rebuilding || s.Rebuilding
		for _, g := range s.Drift {
			k := key{g.Predictor, g.Dependent}
			agg := drift[k]
			if agg == nil {
				cp := g
				drift[k] = &cp
				driftOrder = append(driftOrder, k)
				continue
			}
			tot := agg.Samples + g.Samples
			if tot > 0 {
				agg.MeanAbsResidual = (agg.MeanAbsResidual*float64(agg.Samples) +
					g.MeanAbsResidual*float64(g.Samples)) / float64(tot)
				agg.MarginWidth = (agg.MarginWidth*float64(agg.Samples) +
					g.MarginWidth*float64(g.Samples)) / float64(tot)
			}
			agg.Samples = tot
		}
	}
	for _, k := range driftOrder {
		out.Drift = append(out.Drift, *drift[k])
	}
	// Base ratio aggregates as the live-row-weighted mean of the per-shard
	// build-time ratios.
	var baseNum, baseDen float64
	for _, s := range per {
		baseNum += s.BaseOutlierRatio * float64(s.LiveRows)
		baseDen += float64(s.LiveRows)
	}
	if baseDen > 0 {
		out.BaseOutlierRatio = baseNum / baseDen
	}
	if out.LiveRows > 0 {
		out.OutlierRatio = float64(out.OutlierRows) / float64(out.LiveRows)
	}
	if out.StoredRows > 0 {
		out.TombstoneRatio = float64(out.Tombstones) / float64(out.StoredRows)
	}
	return out
}
