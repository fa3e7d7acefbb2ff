// Package shard is the concurrent serving layer over COAX: it partitions a
// table into K shards, builds an independent core.COAX per shard in
// parallel, and answers rectangle queries — one at a time or in batches —
// by fanning them across shards on a bounded worker pool and merging the
// results safely.
//
// Rows are placed by range: quantile cut points on one column, so queries
// constraining that column probe only the shards whose slab overlaps.
// Soft-FD detection runs once over the whole table and every shard is
// built from the same learned dependencies, so the shards agree on query
// translation and the build parallelises over index construction, the
// expensive part.
//
// # Concurrency and visitor ownership
//
// A Sharded index is safe for concurrent use: Exec, ExecAgg, ExecRows,
// BatchQuery, and the mutations may be called from any number of
// goroutines. Each shard is guarded by its own RWMutex — queries take read
// locks (in one place, the fan-out's runProbe), inserts write-lock only the
// one shard the row routes to.
//
// Every query is a fold on one fan-out: each (query, shard) probe folds its
// shard into a private state under the shard's read lock — an aggregate
// (ExecAgg), or a row reply holding an exact count and the first rows
// (ExecRows, and Exec and BatchQuery over the same fold) — and the states
// are taken in (query, shard) order, so no answer depends on worker timing.
// A fold copies the rows it keeps out of the scanned pages and counts the
// rest off the selection bitmaps, so the rows handed out are stable copies:
// valid after the call, never overwritten by a later match — a stronger
// guarantee than index.Yield's baseline contract. Exec and BatchQuery visit
// them on the calling goroutine once every probe's lock is released, so
// their visitor may mutate the index.
//
// Memory follows the rows kept. ExecRows holds the rows it keeps; Exec and
// BatchQuery hold every match (Exec with a Limit, the first Limit) before the
// first visitor call, so a full-table rectangle buffers the whole table.
// Callers serving untrusted input should bound rectangle selectivity or
// batch width at their own layer (cmd/coaxserve caps request size and batch
// length).
//
// A one-shard Sharded is the public single index (coax.Index): its fan-out
// has one probe, which runs inline on the calling goroutine.
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/stats"
)

// MaxShards bounds the shard count; the snapshot container encodes the
// shard ordinal in a three-hex-digit section id.
const MaxShards = 4096

// Options configures a sharded build: K range slots on one column. Queries
// that constrain that column (directly — translated dependent constraints
// apply only to inliers and cannot prune soundly) probe only the
// overlapping shards. Start from DefaultOptions: the zero value cuts
// column 0 into one slot per CPU.
type Options struct {
	// NumShards is K; 0 means runtime.GOMAXPROCS(0).
	NumShards int
	// Workers bounds the query fan-out pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// BuildWorkers bounds the parallel shard construction; 0 means
	// runtime.GOMAXPROCS(0).
	BuildWorkers int
	// Column is the range-partition column; -1 picks the predictor of the
	// largest detected soft-FD group (falling back to column 0), so range
	// pruning lines up with the column most queries constrain.
	Column int
}

// DefaultOptions returns the recommended sharding configuration.
func DefaultOptions() Options {
	return Options{Column: -1}
}

// shardSlot pairs one COAX with the lock that serialises its mutation and
// the epoch-swap state of an in-flight rebuild (see rebuild.go).
type shardSlot struct {
	mu  sync.RWMutex
	idx *core.COAX

	// delta records mutations that land while a replacement epoch is being
	// built; it is replayed into the new epoch before the swap. Mutators
	// read and append it under mu (write-locked); the rebuild goroutine
	// installs it under mu read-locked, which is race-free because a held
	// read lock excludes every writer (see RebuildShard).
	delta *lifecycle.DeltaLog
	// rebuilding serialises rebuilds of this shard without holding mu.
	rebuilding atomic.Bool

	// writes is the shard's mutation version and the rows its recent
	// mutations wrote. Every successful insert, delete and update records
	// its row images (moving the version by one), and in-place compaction
	// and an epoch-swap rebuild reset it, all while the shard's write lock
	// is still held. It is the invalidation signal result caches key on: an
	// answer to r computed when the version was v is current as long as the
	// version still reads v, or every write since v lies outside r (see
	// WriteRing). Readers never take the shard lock: Version is one atomic
	// load, and Touched takes only the ring's own mutex.
	writes WriteRing
}

// Sharded is a partitioned COAX index. Build one with Build (or reassemble
// a decoded snapshot with Reassemble); it satisfies index.Interface and
// returns exactly the rows a single *core.COAX over the same table returns.
type Sharded struct {
	dims int
	n    atomic.Int64

	ranges  Ranges       // the range partition (Col -1 only at K = 1: see Reassemble)
	workers atomic.Int64 // query fan-out pool size (SetWorkers)

	shards []*shardSlot

	// whole, on an index BuildSlots built, is its build's partition, and
	// slot this index's ordinal in it.
	whole *Ranges
	slot  int
}

// Ranges is a range partition: the rows whose column Col holds v belong to
// slot j of len(Cuts)+1, where Cuts[j-1] <= v < Cuts[j]. The one rule places
// rows and prunes rectangles wherever range slots live: as the shards of a
// Sharded, or as the global shards of a cluster.
type Ranges struct {
	Col  int
	Cuts []float64 // ascending
}

// Slot returns the slot holding a range-column value v: the first whose
// upper cut exceeds v.
func (p Ranges) Slot(v float64) int {
	return sort.Search(len(p.Cuts), func(j int) bool { return p.Cuts[j] > v })
}

// Span returns the inclusive slot interval a rectangle can match. Only the
// rectangle's native constraint on Col prunes: translated dependent
// constraints bound inliers, not the outliers that slots also hold, so
// using them here would drop rows.
func (p Ranges) Span(r index.Rect) (lo, hi int) {
	lo, hi = 0, len(p.Cuts)
	if len(p.Cuts) == 0 {
		return lo, hi
	}
	if v := r.Min[p.Col]; !math.IsInf(v, -1) {
		lo = p.Slot(v)
	}
	if v := r.Max[p.Col]; !math.IsInf(v, 1) {
		hi = p.Slot(v)
	}
	return lo, hi
}

var _ index.Interface = (*Sharded)(nil)

// Build detects soft FDs once over t, partitions it into K shards, and
// builds every shard's COAX in parallel.
func Build(t *dataset.Table, opt core.Options, so Options) (*Sharded, error) {
	fd, err := detect(t, opt)
	if err != nil {
		return nil, err
	}
	return BuildWithFD(t, fd, opt, so)
}

// detect checks t and detects its soft FDs, as every build over it starts.
func detect(t *dataset.Table, opt core.Options) (softfd.Result, error) {
	if t.Len() == 0 {
		return softfd.Result{}, fmt.Errorf("shard: cannot build over an empty table")
	}
	if err := t.Validate(); err != nil {
		return softfd.Result{}, fmt.Errorf("shard: %w", err)
	}
	fd, err := softfd.Detect(t, opt.SoftFD)
	if err != nil {
		return softfd.Result{}, fmt.Errorf("shard: soft-FD detection: %w", err)
	}
	return fd, nil
}

// BuildWithFD builds a sharded index from pre-detected dependencies.
func BuildWithFD(t *dataset.Table, fd softfd.Result, opt core.Options, so Options) (*Sharded, error) {
	s, err := newSharded(t, fd, so)
	if err != nil {
		return nil, err
	}
	if err := s.build(t, fd, opt, so.BuildWorkers, nil); err != nil {
		return nil, err
	}
	s.n.Store(int64(t.Len()))
	return s, nil
}

// BuildSlots builds the slots keep names of a K-way range build over t
// (K = so.NumShards, the column so.Column or, at -1, the engine's pick):
// the soft-FD detection and cuts of Build over all of t, but only the kept
// slots' rows are copied out and indexed. Slot i is a one-shard index that
// remembers the build's partition and its ordinal in it (Slot). A cluster
// node serves the slots it hosts this way, and a router learns from them
// how to prune and route. so.Workers is ignored.
func BuildSlots(t *dataset.Table, opt core.Options, so Options, keep []int) (map[int]*Sharded, error) {
	fd, err := detect(t, opt)
	if err != nil {
		return nil, err
	}
	s, err := newSharded(t, fd, so)
	if err != nil {
		return nil, err
	}
	want := make([]bool, len(s.shards))
	for _, i := range keep {
		if i < 0 || i >= len(want) {
			return nil, fmt.Errorf("shard: slot %d out of range [0,%d)", i, len(want))
		}
		want[i] = true
	}
	if err := s.build(t, fd, opt, so.BuildWorkers, want); err != nil {
		return nil, err
	}
	out := make(map[int]*Sharded, len(keep))
	for _, i := range keep {
		one := &Sharded{dims: s.dims, ranges: Ranges{Col: s.ranges.Col},
			shards: []*shardSlot{s.shards[i]}, whole: &s.ranges, slot: i}
		one.SetWorkers(1)
		one.n.Store(int64(s.shards[i].idx.Len()))
		out[i] = one
	}
	return out, nil
}

// build routes t's rows onto s's shards and builds the COAX of each shard
// want marks (every shard when want is nil) in parallel; the rows of the
// others are skipped.
func (s *Sharded) build(t *dataset.Table, fd softfd.Result, opt core.Options, buildWorkers int, want []bool) error {
	k := len(s.shards)
	built := func(i int) bool { return want == nil || want[i] }

	// Partition rows. Shard tables may be empty (k > distinct values); an
	// empty shard still gets a COAX skeleton so inserts can land later. One
	// shard is built over t itself, with no staging copy.
	tabs := []*dataset.Table{t}
	if k > 1 {
		tabs = make([]*dataset.Table, k)
		for i := range tabs {
			if built(i) {
				tabs[i] = dataset.NewTable(t.Cols)
				tabs[i].Grow(t.Len()/k + 1)
			}
		}
		for i := 0; i < t.Len(); i++ {
			row := t.Row(i)
			if tab := tabs[s.routeRow(row)]; tab != nil {
				tab.Append(row)
			}
		}
	}
	// Build shards in parallel on a bounded pool; construction is the
	// expensive step and each shard is independent.
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		buildErr error
	)
	work := make(chan int)
	for w := 0; w < min(poolSize(buildWorkers), k); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				idx, err := core.BuildWithFD(tabs[i], fd, opt)
				if err != nil {
					errOnce.Do(func() { buildErr = fmt.Errorf("shard %d: %w", i, err) })
					continue
				}
				s.shards[i].idx = idx
			}
		}()
	}
	for i := 0; i < k; i++ {
		if built(i) {
			work <- i
		}
	}
	close(work)
	wg.Wait()
	return buildErr
}

// newSharded returns an index of K empty shard slots, its range cut points
// the quantiles of t's partition column — the whole table, or the sample a
// streaming build starts from.
func newSharded(t *dataset.Table, fd softfd.Result, so Options) (*Sharded, error) {
	k := so.NumShards
	if k == 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k < 1 || k > MaxShards {
		return nil, fmt.Errorf("shard: NumShards %d out of range [1,%d]", k, MaxShards)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("shard: cannot build over an empty table")
	}
	col := so.Column
	if col < 0 {
		col = autoRangeColumn(fd)
	}
	if col >= t.Dims() {
		return nil, fmt.Errorf("shard: range column %d out of range [0,%d)", col, t.Dims())
	}
	s := &Sharded{dims: t.Dims(), ranges: Ranges{Col: col, Cuts: rangeCuts(t, col, k)}}
	s.SetWorkers(so.Workers)
	s.shards = make([]*shardSlot, k)
	for i := range s.shards {
		s.shards[i] = &shardSlot{}
	}
	return s, nil
}

// Reassemble wires pre-built (typically snapshot-decoded) shard indexes
// into a serving Sharded over the range partition p: len(shards)-1
// ascending cut points on a valid column. One shard may have column -1 (a
// single-index file opened as one slot), since it routes nothing.
func Reassemble(shards []*core.COAX, p Ranges, workers int) (*Sharded, error) {
	if len(shards) < 1 || len(shards) > MaxShards {
		return nil, fmt.Errorf("shard: %d shards out of range [1,%d]", len(shards), MaxShards)
	}
	dims := shards[0].Dims()
	n := 0
	for i, idx := range shards {
		if idx == nil {
			return nil, fmt.Errorf("shard: shard %d is nil", i)
		}
		if idx.Dims() != dims {
			return nil, fmt.Errorf("shard: shard %d has %d dims, shard 0 has %d", i, idx.Dims(), dims)
		}
		n += idx.Len()
	}
	if p.Col < -1 || p.Col >= dims || p.Col == -1 && len(shards) > 1 {
		return nil, fmt.Errorf("shard: range column %d out of range [0,%d)", p.Col, dims)
	}
	if len(p.Cuts) != len(shards)-1 {
		return nil, fmt.Errorf("shard: %d cut points for %d shards, want %d", len(p.Cuts), len(shards), len(shards)-1)
	}
	if !sort.Float64sAreSorted(p.Cuts) {
		return nil, fmt.Errorf("shard: cut points are not ascending")
	}
	s := &Sharded{dims: dims, ranges: Ranges{Col: p.Col, Cuts: append([]float64(nil), p.Cuts...)}}
	s.SetWorkers(workers)
	s.shards = make([]*shardSlot, len(shards))
	for i, idx := range shards {
		s.shards[i] = &shardSlot{idx: idx}
	}
	s.n.Store(int64(n))
	return s, nil
}

// autoRangeColumn picks the predictor of the largest soft-FD group, the
// column range queries are most likely to constrain (directly or through
// translation of its dependents), falling back to column 0.
func autoRangeColumn(fd softfd.Result) int {
	best, bestSize := 0, 0
	for _, g := range fd.Groups {
		if len(g.Members) > bestSize {
			best, bestSize = g.Predictor, len(g.Members)
		}
	}
	return best
}

// rangeCuts places k-1 cut points on the quantiles of t's column col:
// cut i-1 is the value of rank i·n/k, found by selection (stats.SelectRanks),
// not a full sort.
func rangeCuts(t *dataset.Table, col, k int) []float64 {
	if k <= 1 {
		return nil
	}
	vals := t.Column(col)
	ranks := make([]int, k-1)
	for i := range ranks {
		ranks[i] = (i + 1) * len(vals) / k
	}
	stats.SelectRanks(vals, ranks)
	cuts := make([]float64, k-1)
	for i, r := range ranks {
		cuts[i] = vals[r]
	}
	return cuts
}

func poolSize(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SetWorkers sizes the query fan-out pool: n workers, or one per CPU when
// n ≤ 0. A query already running keeps the pool it planned with.
func (s *Sharded) SetWorkers(n int) { s.workers.Store(int64(poolSize(n))) }

// routeRow maps a row to its shard ordinal. One shard routes everything
// there, whatever its column (-1 for a single-index file).
func (s *Sharded) routeRow(row []float64) int {
	if len(s.ranges.Cuts) == 0 {
		return 0
	}
	return s.ranges.Slot(row[s.ranges.Col])
}

// Name implements index.Interface.
func (s *Sharded) Name() string { return "COAX-sharded" }

// Len implements index.Interface.
func (s *Sharded) Len() int { return int(s.n.Load()) }

// Dims implements index.Interface.
func (s *Sharded) Dims() int { return s.dims }

// NumShards reports K.
func (s *Sharded) NumShards() int { return len(s.shards) }

// RangeColumn reports the range-partition column, or -1 for a single-index
// file opened as one shard.
func (s *Sharded) RangeColumn() int { return s.ranges.Col }

// Cuts returns a copy of the range cut points (nil at K=1).
func (s *Sharded) Cuts() []float64 { return append([]float64(nil), s.ranges.Cuts...) }

// Slot reports, for an index built by BuildSlots, the partition of the
// build it belongs to and its ordinal there; ok is false for any other index.
func (s *Sharded) Slot() (whole Ranges, slot int, ok bool) {
	if s.whole == nil {
		return Ranges{}, 0, false
	}
	return *s.whole, s.slot, true
}

// MemoryOverhead implements index.Interface: the sum of the shard
// directories.
func (s *Sharded) MemoryOverhead() int64 {
	var b int64
	for _, slot := range s.shards {
		slot.mu.RLock()
		b += slot.idx.MemoryOverhead()
		slot.mu.RUnlock()
	}
	return b
}

// WithShard runs fn with shard i's index under its read lock; the snapshot
// encoder uses it to serialise a shard that may be receiving inserts.
func (s *Sharded) WithShard(i int, fn func(*core.COAX) error) error {
	slot := s.shards[i]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	return fn(slot.idx)
}

// Insert routes one row to its shard and inserts it under that shard's
// write lock; concurrent queries keep running against every other shard.
func (s *Sharded) Insert(row []float64) error {
	if err := lifecycle.ValidateRow(s.dims, row); err != nil {
		return err
	}
	if err := s.shards[s.routeRow(row)].mutate(nil, row); err != nil {
		return err
	}
	s.n.Add(1)
	return nil
}

// Delete routes one row to its shard — mutation routing is deterministic,
// so the shard that received a row's insert is the one holding it — and
// removes the first live exact match under the shard's write lock. Returns
// core.ErrNotFound when no live row matches.
func (s *Sharded) Delete(row []float64) error {
	if err := lifecycle.ValidateRow(s.dims, row); err != nil {
		return err
	}
	if err := s.shards[s.routeRow(row)].mutate(row, nil); err != nil {
		return err
	}
	s.n.Add(-1)
	return nil
}

// Update replaces one live row equal to old with new. When both rows route
// to the same shard the swap is atomic under that shard's write lock; when
// they route to different shards the delete and insert commit one shard at
// a time, so a concurrent query may briefly observe neither row (never
// both). Returns core.ErrNotFound (changing nothing) when old is absent.
func (s *Sharded) Update(old, new []float64) error {
	if err := lifecycle.ValidateRow(s.dims, old); err != nil {
		return err
	}
	if err := lifecycle.ValidateRow(s.dims, new); err != nil {
		return err
	}
	src, dst := s.shards[s.routeRow(old)], s.shards[s.routeRow(new)]
	if src == dst {
		return src.mutate(old, new)
	}

	// Cross-shard: commit the delete, then the insert, locking one shard
	// at a time (never both, so shard-ordinal lock ordering is moot).
	if err := src.mutate(old, nil); err != nil {
		return err
	}
	if err := dst.mutate(nil, new); err != nil {
		// The insert can only fail on lazy index creation; restore the old
		// row so the update is all-or-nothing.
		if rerr := src.mutate(nil, old); rerr != nil {
			s.n.Add(-1)
			return fmt.Errorf("shard: update lost row: %w", errors.Join(err, rerr))
		}
		return err
	}
	return nil
}

// mutate is one mutation step on the slot, under its write lock: it
// deletes del, inserts add, or with both updates del to add in place. Once
// the index accepts it, the step is logged for an in-flight rebuild and its
// row images are recorded in the write ring.
func (slot *shardSlot) mutate(del, add []float64) error {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	var err error
	switch {
	case del == nil:
		err = slot.idx.Insert(add)
	case add == nil:
		err = slot.idx.Delete(del)
	default:
		err = slot.idx.Update(del, add)
	}
	if err != nil {
		return err
	}
	if slot.delta != nil {
		if del != nil {
			slot.delta.Append(lifecycle.OpDelete, del)
		}
		if add != nil {
			slot.delta.Append(lifecycle.OpInsert, add)
		}
	}
	if del == nil {
		slot.writes.Record(add, nil)
	} else {
		slot.writes.Record(del, add)
	}
	return nil
}

// ShardVersion reports shard i's current mutation version without taking
// the shard lock. With ShardSpan and Touched it is the serving tier's cache
// invalidation contract: capture the versions of a query's span before
// executing it; the answer is current while every captured version still
// reads the same, and when one moved, Touched tells whether any write since
// the capture could have changed it. Every mutation records its version
// before the shard's lock is released.
func (s *Sharded) ShardVersion(i int) uint64 { return s.shards[i].writes.Version() }

// Touched reports shard i's current version and whether an answer to r
// captured at version since may have changed: false only when every
// mutation since then is still in the shard's WriteRing and wrote no row
// inside r. A compaction, a rebuild or more than WriteRingSize mutations
// since the capture read as touched.
func (s *Sharded) Touched(i int, since uint64, r index.Rect) (now uint64, touched bool) {
	return s.shards[i].writes.Touched(since, r)
}

// ShardSpan reports the inclusive shard interval [lo, hi] a rectangle can
// match — the shards whose mutation versions govern the freshness of a
// cached answer to r. Rectangles constraining the range column span fewer
// shards; everything else spans all of them.
func (s *Sharded) ShardSpan(r index.Rect) (lo, hi int) { return s.ranges.Span(r) }

// Stats summarises the sharded index: its shards' build statistics summed
// (the groups, dependent dims and sort dim come from the dependencies every
// shard shares; the primary grid's cells per axis and the outlier grid's
// dims and sort dim are shard 0's, since each shard places its own grid
// lines and chooses its own outlier layout), and its layout and fan-out.
type Stats struct {
	core.Stats
	Shards          int
	RangeColumn     int // -1 for a single-index file opened as one shard
	Workers         int // query fan-out pool size
	RowsPerShard    []int
	MemoryOverheadB int64
}

// BuildStats reports the current shape of the sharded index.
func (s *Sharded) BuildStats() Stats {
	st := Stats{
		Shards:       len(s.shards),
		RangeColumn:  s.ranges.Col,
		Workers:      int(s.workers.Load()),
		RowsPerShard: make([]int, len(s.shards)),
	}
	for i, slot := range s.shards {
		slot.mu.RLock()
		cs := slot.idx.BuildStats()
		slot.mu.RUnlock()
		st.RowsPerShard[i] = cs.Rows
		if i == 0 {
			st.Stats = cs
			continue
		}
		st.Rows += cs.Rows
		st.PrimaryRows += cs.PrimaryRows
		st.OutlierRows += cs.OutlierRows
		st.PrimaryCells += cs.PrimaryCells
		st.OutlierCells += cs.OutlierCells
		st.PrimaryOverheadB += cs.PrimaryOverheadB
		st.OutlierOverheadB += cs.OutlierOverheadB
		st.ModelOverheadB += cs.ModelOverheadB
	}
	if st.Rows > 0 {
		st.PrimaryRatio = float64(st.PrimaryRows) / float64(st.Rows)
	}
	st.MemoryOverheadB = st.PrimaryOverheadB + st.OutlierOverheadB + st.ModelOverheadB
	return st
}
