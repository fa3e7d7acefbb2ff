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
// Basic usage (Query API v2 — see the Query builder in query.go):
//
//	table := coax.NewTable([]string{"distance", "airtime", "carrier"})
//	// ... table.Append(row) for every row ...
//	idx, err := coax.Build(table, coax.DefaultOptions())
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
	"github.com/coax-index/coax/internal/snapshot"
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

// Visitor receives one matching row per call — the legacy query callback,
// which lives only at this public edge: (*Index).Query and
// (*ShardedIndex).Query adapt it onto the engines' one execution path.
// Under the unified v2 ownership contract, the slice is only guaranteed
// valid for the duration of the call, whichever index answers; copy rows
// you retain, or build the query with Query.Stable() (or use Collect,
// whose rows are always stable copies). *ShardedIndex happens to pass
// stable copies on this legacy path too — a guarantee kept for
// compatibility, not one the contract extends to new code.
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

// Stats summarises a build: detected groups, primary/outlier row counts,
// grid dimensionality, and directory overheads.
type Stats = core.Stats

// Index is a built COAX index. It is safe for concurrent readers once
// built, and supports single-writer mutation: Insert, Delete, and Update
// classify each row against the learned models and route it into (or out
// of) the primary or outlier partition; deletes tombstone main-page rows
// and queries filter the tombstones at the visitor boundary. Watch
// LifecycleStats for drift and call Rebuild when the index goes stale; for
// fully concurrent mutation and online self-healing use ShardedIndex.
type Index = core.COAX

// Build learns the soft FDs of t and constructs the index. It is a thin
// shim over the v2 Builder in full-scan mode (see builder.go), kept
// bit-for-bit identical to the v1 behaviour: a fresh table source
// materializes back to t itself and the exact in-memory build runs over
// it.
func Build(t *Table, opt Options) (*Index, error) {
	return NewBuilder(TableSchema(t), opt).Build(NewTableSource(t, 0))
}

// ErrNotFound is returned by Delete and Update when no live row equals the
// given one.
var ErrNotFound = core.ErrNotFound

// ErrRebuildInProgress is returned by ShardedIndex.RebuildShard when that
// shard is already mid-rebuild.
var ErrRebuildInProgress = shard.ErrRebuildInProgress

// LifecycleStats is the mutation-health snapshot of an Index or
// ShardedIndex: live/stored/tombstoned row counts, outlier ratio against
// its build-time baseline, per-dependency model residual drift, mutation
// counters, and the rebuild epoch.
type LifecycleStats = lifecycle.Stats

// GroupDrift reports how far inserted rows have drifted from one learned
// dependency since the last build.
type GroupDrift = lifecycle.GroupDrift

// Thresholds configures when an index counts as stale (outlier ratio,
// tombstone ratio, residual drift, minimum mutation count).
type Thresholds = lifecycle.Thresholds

// DefaultThresholds returns the staleness rules used by the serving layer.
func DefaultThresholds() Thresholds { return lifecycle.DefaultThresholds() }

// Compactor is the background maintenance loop: it polls a ShardedIndex
// for shards stale under its thresholds and rebuilds them online — the
// self-healing loop of cmd/coaxserve.
type Compactor = lifecycle.Compactor

// SweepResult summarises one compactor pass.
type SweepResult = lifecycle.SweepResult

// NewCompactor creates a compactor over idx; call Start for background
// polling, Kick for an immediate sweep, Stop to shut it down.
func NewCompactor(idx *ShardedIndex, th Thresholds, interval time.Duration) *Compactor {
	return lifecycle.NewCompactor(idx, th, interval)
}

// Save writes a built index to w in the versioned COAX snapshot format
// (magic, format version, checksummed sections — see internal/snapshot). A
// loaded snapshot answers queries identically to the index that was saved,
// without re-running soft-FD detection or index construction.
func Save(w io.Writer, idx *Index) error { return snapshot.Encode(w, idx) }

// Load reads an index previously written by Save. Corrupted, truncated, or
// version-incompatible input yields an error, never a panic. The returned
// index is safe for concurrent readers.
func Load(r io.Reader) (*Index, error) { return snapshot.Decode(r) }

// SaveFile writes a built index to path via Save. The write is atomic: the
// snapshot goes to a temporary file in the same directory, is fsynced, and
// is renamed over path only once complete — a crash or full disk midway
// neither leaves a torn snapshot at path nor destroys the previous one.
func SaveFile(path string, idx *Index) error {
	return atomicWriteFile(path, func(w io.Writer) error { return Save(w, idx) })
}

// atomicWriteFile streams emit's output to a temporary file beside path and
// renames it over path only once fully written and fsynced.
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
	// CreateTemp's 0600 would silently downgrade a world-readable snapshot
	// on replace; keep the target's existing mode, defaulting to 0644.
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := f.Chmod(mode); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
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
	return nil
}

// LoadFile reads an index from a file written by SaveFile.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReaderSize(f, 1<<20))
}

// Sharded serving layer. BuildSharded partitions a table into K shards,
// builds an independent COAX per shard in parallel, and answers queries by
// fanning rectangles (or whole batches of rectangles) across shards on a
// bounded worker pool — the path for serving heavy concurrent traffic. See
// internal/shard for the concurrency and visitor-ownership contract.

// ShardedIndex is a partitioned COAX index built by BuildSharded. It
// answers Query interchangeably with *Index, adds BatchQuery for amortised
// fan-out over many rectangles, and — unlike *Index — is safe for fully
// concurrent use: Query, BatchQuery, Insert, Delete, and Update may race
// freely. Shards rebuild independently and online (RebuildShard,
// RebuildStale, or a background Compactor): queries and mutations keep
// running against the old epoch while its replacement is built, a delta
// log catches the swap up, and only that one shard's writes block briefly.
type ShardedIndex = shard.Sharded

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

// BuildSharded learns the soft FDs of t once, partitions the table, and
// constructs one COAX per shard in parallel. Like Build, it is a thin
// bit-for-bit shim over the v2 Builder in full-scan mode.
func BuildSharded(t *Table, opt Options, so ShardOptions) (*ShardedIndex, error) {
	return NewBuilder(TableSchema(t), opt).BuildSharded(NewTableSource(t, 0), so)
}

// SaveSharded writes a sharded index to w in the versioned COAX snapshot
// format: a shard-layout section followed by one checksummed section per
// shard. Encoding takes per-shard read locks, so the index may keep
// serving while it is being saved.
func SaveSharded(w io.Writer, idx *ShardedIndex) error { return snapshot.EncodeSharded(w, idx) }

// LoadSharded reads a sharded index previously written by SaveSharded. The
// returned index is immediately safe for concurrent use. Loading a
// single-index snapshot yields an error directing the caller to Load.
func LoadSharded(r io.Reader) (*ShardedIndex, error) { return snapshot.DecodeSharded(r) }

// SaveShardedFile writes a sharded index to path with the same atomic
// write-then-rename protocol as SaveFile.
func SaveShardedFile(path string, idx *ShardedIndex) error {
	return atomicWriteFile(path, func(w io.Writer) error { return SaveSharded(w, idx) })
}

// LoadShardedFile reads a sharded index from a file written by
// SaveShardedFile.
func LoadShardedFile(path string) (*ShardedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSharded(bufio.NewReaderSize(f, 1<<20))
}

// Querier is the query surface shared by *Index and *ShardedIndex; Count,
// Collect, and the v2 Query builder accept either. Both implementations
// also offer Columns() (name-based predicates) and the stop-aware v2
// execution path; a third-party Querier still works, but without
// engine-level early termination.
type Querier interface {
	Len() int
	Dims() int
	Query(r Rect, visit Visitor)
}

// Count runs a query and returns the number of matching rows. It is a
// run-to-completion shim over the v2 scan; use FromRect(r).Limit(k) or
// CountLimit to stop counting at a threshold.
func Count(idx Querier, r Rect) int {
	n := 0
	idx.Query(r, func([]float64) { n++ })
	return n
}

// CountLimit counts matching rows, stopping the scan — across every shard
// — once k have been seen; it returns min(k, total). k ≤ 0 counts all.
func CountLimit(idx Querier, r Rect, k int) (int, error) {
	return FromRect(r).Limit(k).Count(idx)
}

// collectBlockRows rows share one backing allocation in Collect.
const collectBlockRows = 256

// Collect runs a query and returns all matching rows. The returned rows
// are always stable private copies, regardless of the backing index — they
// stay valid indefinitely and share nothing with the index internals. The
// result starts small (a query may match one row of millions) and row
// payloads are carved from block allocations rather than one make per row.
func Collect(idx Querier, r Rect) [][]float64 {
	out := make([][]float64, 0, min(idx.Len(), 64))
	var block []float64
	idx.Query(r, func(row []float64) {
		if len(block) < len(row) {
			block = make([]float64, collectBlockRows*len(row))
		}
		cp := block[:len(row):len(row)]
		block = block[len(row):]
		copy(cp, row)
		out = append(out, cp)
	})
	return out
}

// CollectLimit collects up to k matching rows, stopping the scan — across
// every shard — as soon as it has them. Rows are stable copies. k ≤ 0
// collects all.
func CollectLimit(idx Querier, r Rect, k int) ([][]float64, error) {
	return FromRect(r).Limit(k).Collect(idx)
}

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
