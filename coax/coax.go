// Package coax is the public API of the COAX correlation-aware
// multidimensional index (Hadian et al., "COAX: Correlation-Aware Indexing
// on Multidimensional Data with Soft Functional Dependencies").
//
// COAX detects soft functional dependencies between table columns — cases
// where one attribute approximately determines another, such as an id that
// tracks a timestamp or a flight distance that tracks its air time — and
// exploits them to index fewer dimensions. Rows that respect the learned
// dependencies live in a small reduced-dimensionality primary index; the
// rest live in a conventional multidimensional outlier index. Queries that
// constrain a dependent attribute are translated through the learned model
// into constraints on its predictor, so results remain exact.
//
// There is one index type, Index: a Builder builds it (one shard, or K
// with BuildSharded), SaveShardedFileV3 saves it, OpenFile opens the saved
// file, and a Query runs on it. Basic usage (see the Query builder in
// query.go):
//
//	table := coax.NewTable([]string{"distance", "airtime", "carrier"})
//	// ... table.Append(row) for every row ...
//	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).
//		Build(coax.NewTableSource(table, 0))
//	if err != nil { ... }
//	rows, err := coax.NewQuery().
//		Where("airtime", coax.Between(60, 90)).
//		Limit(100).
//		Collect(idx)
//
// The legacy rectangle surface remains supported:
//
//	q := coax.FullRect(3)
//	q.Min[1], q.Max[1] = 60, 90 // airtime between 60 and 90 minutes
//	idx.Query(q, func(row []float64) { ... })
package coax

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/softfd"
)

// Table is an in-memory, row-major collection of float64 rows. Build one
// with NewTable and Append, or load it with ReadCSV.
type Table = dataset.Table

// NewTable creates an empty table with the given column names.
func NewTable(cols []string) *Table { return dataset.NewTable(cols) }

// ReadCSV loads a table from CSV data with a header row; every field must
// parse as a float64.
func ReadCSV(r io.Reader) (*Table, error) { return dataset.ReadCSV(r) }

// WriteCSV writes a table as CSV with a header row.
func WriteCSV(w io.Writer, t *Table) error { return dataset.WriteCSV(w, t) }

// Rect is an axis-aligned query rectangle with inclusive bounds; use ±Inf
// to leave a dimension unconstrained.
type Rect = index.Rect

// NewRect builds a rectangle from copies of min and max.
func NewRect(min, max []float64) Rect { return index.NewRect(min, max) }

// FullRect returns a rectangle matching every row of a dims-column table.
func FullRect(dims int) Rect { return index.Full(dims) }

// PointQuery returns the degenerate rectangle matching exactly p.
func PointQuery(p []float64) Rect { return index.Point(p) }

// Visitor receives one matching row per call — the legacy callback of
// (*Index).Query, which folds every match of the rectangle before the first
// call. Rows are stable copies, and the visitor may mutate the index.
type Visitor = func(row []float64)

// Options configures a Build. Start from DefaultOptions.
type Options = core.Options

// SoftFDConfig tunes the dependency detector (sample size, grid
// resolution, margins, acceptance thresholds).
type SoftFDConfig = softfd.Config

// OutlierIndexKind selects the structure holding the rows that violate the
// learned dependencies.
type OutlierIndexKind = core.OutlierIndexKind

// Outlier index kinds.
const (
	OutlierGrid  = core.OutlierGrid
	OutlierRTree = core.OutlierRTree
)

// DefaultOptions returns the recommended build configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultSoftFDConfig returns the recommended detector configuration.
func DefaultSoftFDConfig() SoftFDConfig { return softfd.DefaultConfig() }

// Group is one set of mutually correlated columns with its elected
// predictor.
type Group = softfd.Group

// PairModel is one learned soft functional dependency: column X predicts
// column D within margins [−EpsLB, +EpsUB].
type PairModel = softfd.PairModel

// Stats summarises an index: detected groups, primary/outlier row counts,
// grid dimensionality and directory overheads, summed over its shards, plus
// the shard layout and fan-out pool.
type Stats = shard.Stats

// Index is a built COAX index: K shards (one unless built with
// BuildSharded), each a reduced-dimension primary grid plus an outlier
// index over the soft FDs every shard shares. It answers a query by folding
// each shard the rectangle can match under that shard's read lock, on a
// bounded worker pool — inline on the caller when one shard is probed — and
// taking the folds in shard order, so answers never depend on timing.
//
// It is safe for fully concurrent use: queries, Insert, Delete and Update
// may race freely. A mutation classifies its row against the learned models
// and routes it into (or out of) one shard's primary or outlier partition.
// Shards rebuild independently and online (RebuildShard, RebuildStale,
// RebuildAll, or a background Compactor): queries and mutations keep
// running against the old epoch while its replacement is built, a delta log
// catches the swap up, and only that one shard's writes block briefly.
type Index = shard.Sharded

// ShardedIndex is Index, under the name it had when a sharded index was a
// type of its own.
type ShardedIndex = Index

// ErrNotFound is returned by Delete and Update when no live row equals the
// given one.
var ErrNotFound = core.ErrNotFound

// ErrRebuildInProgress is returned by Index.RebuildShard when that shard is
// already mid-rebuild.
var ErrRebuildInProgress = shard.ErrRebuildInProgress

// LifecycleStats is the mutation-health snapshot of an Index: live/stored/
// tombstoned row counts, outlier ratio against its build-time baseline,
// per-dependency model residual drift, mutation counters, and the rebuild
// epoch.
type LifecycleStats = lifecycle.Stats

// GroupDrift reports how far inserted rows have drifted from one learned
// dependency since the last build.
type GroupDrift = lifecycle.GroupDrift

// Thresholds configures when an index counts as stale (outlier ratio,
// tombstone ratio, residual drift, minimum mutation count).
type Thresholds = lifecycle.Thresholds

// DefaultThresholds returns the staleness rules used by the serving layer.
func DefaultThresholds() Thresholds { return lifecycle.DefaultThresholds() }

// Compactor is the background maintenance loop: it polls an Index for
// shards stale under its thresholds and rebuilds them online — the
// self-healing loop of cmd/coaxserve.
type Compactor = lifecycle.Compactor

// SweepResult summarises one compactor pass.
type SweepResult = lifecycle.SweepResult

// NewCompactor creates a compactor over idx; call Start for background
// polling, Kick for an immediate sweep, Stop to shut it down.
func NewCompactor(idx *Index, th Thresholds, interval time.Duration) *Compactor {
	return lifecycle.NewCompactor(idx, th, interval)
}

// atomicWriteFile streams emit's output to a temporary file beside path,
// fsyncs it, renames it over path and fsyncs the directory, so that once it
// returns nil the new file is durably at path. An error before the rename
// removes the temporary file and leaves the file at path untouched.
func atomicWriteFile(path string, emit func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "." // keep the temp file on path's filesystem, not os.TempDir
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// CreateTemp's 0600 would silently downgrade a world-readable snapshot
	// on replace; keep the target's existing mode, defaulting to 0644.
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := f.Chmod(mode); err != nil {
		return fail(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := emit(w); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is durable only once the directory entry is: without this
	// a power loss can bring the old file back.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// ShardOptions configures BuildSharded. Start from DefaultShardOptions.
type ShardOptions = shard.Options

// ShardPartition selects how rows are assigned to shards.
type ShardPartition = shard.Partition

// Shard partition schemes.
const (
	// ShardByRange splits one column into quantile slabs so queries
	// constraining it probe only overlapping shards.
	ShardByRange = shard.ByRange
	// ShardByHash routes rows by a hash of their bit pattern.
	ShardByHash = shard.ByHash
)

// BatchVisitor receives one matching row per call, tagged with the batch
// position of the query it matched; rows are stable copies.
type BatchVisitor = shard.BatchVisitor

// DefaultShardOptions returns the recommended sharding configuration:
// range partitioning on an automatically chosen column, with one shard and
// one worker per CPU.
func DefaultShardOptions() ShardOptions { return shard.DefaultOptions() }

// Synthetic dataset generators. The repository's benchmarks run on
// synthetic stand-ins for the paper's OSM and Airline extracts; they are
// exported so applications and examples can generate realistic correlated
// data without shipping multi-gigabyte files.

// OSMConfig configures GenerateOSM.
type OSMConfig = dataset.OSMConfig

// AirlineConfig configures GenerateAirline.
type AirlineConfig = dataset.AirlineConfig

// GenerateOSM builds a synthetic OpenStreetMap-like table
// (id, timestamp, lat, lon) with a strong id→timestamp soft FD and
// clustered coordinates.
func GenerateOSM(cfg OSMConfig) *Table { return dataset.GenerateOSM(cfg) }

// GenerateAirline builds a synthetic US-airlines-like table with two
// three-attribute correlation groups across 8 columns.
func GenerateAirline(cfg AirlineConfig) *Table { return dataset.GenerateAirline(cfg) }

// DefaultOSMConfig returns the benchmark OSM generator settings for n rows.
func DefaultOSMConfig(n int) OSMConfig { return dataset.DefaultOSMConfig(n) }

// DefaultAirlineConfig returns the benchmark airline generator settings
// for n rows.
func DefaultAirlineConfig(n int) AirlineConfig { return dataset.DefaultAirlineConfig(n) }
