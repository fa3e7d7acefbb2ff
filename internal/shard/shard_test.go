package shard_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// fdTable plants one soft FD (col1 ≈ 2·col0 + 50) with an outlier fraction
// and two independent columns — the same shape internal/core tests use.
func fdTable(rng *rand.Rand, n int, outlierFrac float64) *dataset.Table {
	t := dataset.NewTable([]string{"x", "d", "u", "v"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		var d float64
		if rng.Float64() < outlierFrac {
			d = rng.Float64() * 2100
		} else {
			d = 2*x + 50 + rng.NormFloat64()*4
		}
		t.Append([]float64{x, d, rng.Float64() * 100, rng.NormFloat64() * 10})
	}
	return t
}

func coreOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 4000
	return opt
}

// sortRows orders rows lexicographically so result sets compare as
// multisets.
func sortRows(rows [][]float64) {
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
}

func rowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Property: for random tables, shard counts, partition schemes, and
// workloads, ShardedIndex.Query and BatchQuery return exactly the multiset
// of rows a single-shard core.COAX returns.
func TestShardedEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(3000)
		tab := fdTable(rng, n, rng.Float64()*0.3)
		opt := coreOptions()
		opt.PrimaryCellsPerDim = 1 + rng.Intn(12)

		single, err := core.Build(tab, opt)
		if err != nil {
			t.Logf("seed %d: single build: %v", seed, err)
			return false
		}
		so := shard.Options{
			NumShards: 1 + rng.Intn(8),
			Workers:   1 + rng.Intn(4),
			Column:    -1,
		}
		if rng.Float64() < 0.6 {
			so.Column = rng.Intn(tab.Dims())
		}
		sharded, err := shard.BuildWithFD(tab, single.FD(), opt, so)
		if err != nil {
			t.Logf("seed %d: sharded build: %v", seed, err)
			return false
		}
		if sharded.Len() != single.Len() || sharded.Dims() != single.Dims() {
			t.Logf("seed %d: len/dims mismatch", seed)
			return false
		}

		queries := make([]index.Rect, 6)
		for i := range queries {
			queries[i] = workload.RandRect(rng, tab)
		}
		queries = append(queries, index.Full(tab.Dims()), index.Point(tab.Row(rng.Intn(n))))

		// Query path: per-rectangle multiset equality.
		for _, r := range queries {
			want := index.Collect(single, r)
			got := index.Collect(sharded, r)
			sortRows(want)
			sortRows(got)
			if !rowsEqual(want, got) {
				t.Logf("seed %d: Query rect %v: got %d rows, want %d", seed, r, len(got), len(want))
				return false
			}
		}

		// BatchQuery path: the whole batch at once, grouped per query.
		got := make([][][]float64, len(queries))
		sharded.BatchQuery(queries, func(qi int, row []float64) {
			got[qi] = append(got[qi], append([]float64(nil), row...))
		})
		for qi, r := range queries {
			want := index.Collect(single, r)
			sortRows(want)
			sortRows(got[qi])
			if !rowsEqual(want, got[qi]) {
				t.Logf("seed %d: BatchQuery query %d: got %d rows, want %d", seed, qi, len(got[qi]), len(want))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBatchQuerySkipsEmptyRects(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := fdTable(rng, 2000, 0.1)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	empty := index.Full(4)
	empty.Min[0], empty.Max[0] = 5, 1 // Min > Max: matches nothing
	full := index.Full(4)
	counts := make([]int, 3)
	s.BatchQuery([]index.Rect{empty, full, full}, func(qi int, _ []float64) { counts[qi]++ })
	if counts[0] != 0 {
		t.Errorf("empty rect matched %d rows", counts[0])
	}
	if counts[1] != tab.Len() || counts[2] != tab.Len() {
		t.Errorf("duplicate full rects matched %d/%d rows, want %d each", counts[1], counts[2], tab.Len())
	}
}

func TestInsertThenQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tab := fdTable(rng, 3000, 0.15)
	// The auto column (the predictor x) and u, a column nothing predicts.
	for _, col := range []int{-1, 2} {
		s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 5, Workers: 3, Column: col})
		if err != nil {
			t.Fatal(err)
		}
		combined := tab.Slice(0, tab.Len())
		extra := fdTable(rng, 500, 0.3)
		for i := 0; i < extra.Len(); i++ {
			row := extra.Row(i)
			if err := s.Insert(row); err != nil {
				t.Fatalf("column %d: insert: %v", col, err)
			}
			combined.Append(row)
		}
		if s.Len() != combined.Len() {
			t.Fatalf("column %d: Len = %d, want %d", col, s.Len(), combined.Len())
		}
		oracle := scan.New(combined)
		for trial := 0; trial < 40; trial++ {
			r := workload.RandRect(rng, combined)
			if got, want := index.Count(s, r), index.Count(oracle, r); got != want {
				t.Fatalf("column %d: trial %d rect %v: count %d, want %d", col, trial, r, got, want)
			}
		}
	}
}

// Regression for the visitor ownership contract: a visitor that retains
// every slice it is handed must observe uncorrupted rows afterwards. If the
// fan-out reused merge buffers between calls (or handed out slices still
// being written by workers), retained rows would be overwritten by later
// matches and the final comparison would fail.
func TestVisitorSliceRetentionNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := fdTable(rng, 4000, 0.2)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := scan.New(tab)
	for trial := 0; trial < 20; trial++ {
		r := workload.RandRect(rng, tab)
		var retained [][]float64 // slices exactly as handed to the visitor
		var copies [][]float64   // deep copies taken at visit time
		s.Exec(r, index.Spec{}, func(row []float64) bool {
			retained = append(retained, row)
			copies = append(copies, append([]float64(nil), row...))
			return true
		}, nil)
		for i := range retained {
			for j := range retained[i] {
				if retained[i][j] != copies[i][j] {
					t.Fatalf("trial %d: retained row %d mutated after visit: %v vs %v",
						trial, i, retained[i], copies[i])
				}
			}
		}
		// Retained rows must also be the true result multiset.
		want := index.Collect(oracle, r)
		sortRows(want)
		sortRows(retained)
		if !rowsEqual(want, retained) {
			t.Fatalf("trial %d: retained rows are not the query result", trial)
		}
		// Writing through one retained row must not reach another (no
		// hidden sharing beyond the documented per-task buffers' distinct
		// regions).
		if len(retained) >= 2 {
			a, b := retained[0], retained[1]
			save := b[0]
			a[0] = math.Inf(1)
			if b[0] != save && &a[0] != &b[0] {
				t.Fatal("distinct retained rows alias the same memory")
			}
			a[0] = copies[0][0]
		}
	}
}

// Exercised under -race in CI: queries on all shards while rows are being
// inserted concurrently must neither race nor miss settled data.
func TestConcurrentQueryDuringInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tab := fdTable(rng, 3000, 0.15)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := tab.Len()
	full := index.Full(tab.Dims())

	const (
		readers          = 4
		inserts          = 400
		queriesPerReader = 60
	)
	extra := fdTable(rng, inserts, 0.3)
	rects := make([]index.Rect, queriesPerReader)
	for i := range rects {
		rects[i] = workload.RandRect(rng, tab)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load() && i < queriesPerReader; i++ {
				// Full scans observe between base and base+inserts rows;
				// anything else means the fan-out saw a torn shard.
				n := index.Count(s, full)
				if n < base || n > base+inserts {
					t.Errorf("reader %d: full count %d outside [%d,%d]", g, n, base, base+inserts)
					return
				}
				index.Count(s, rects[i])
				if i%7 == 0 {
					s.BatchQuery(rects[:4], func(int, []float64) {})
				}
			}
		}(g)
	}
	for i := 0; i < inserts; i++ {
		if err := s.Insert(extra.Row(i)); err != nil {
			t.Errorf("insert %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := index.Count(s, full); got != base+inserts {
		t.Errorf("settled count %d, want %d", got, base+inserts)
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tab := fdTable(rng, 200, 0.1)
	if _, err := shard.Build(dataset.NewTable([]string{"a"}), coreOptions(), shard.DefaultOptions()); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: shard.MaxShards + 1}); err == nil {
		t.Error("oversized shard count accepted")
	}
	if _, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 2, Column: 99}); err == nil {
		t.Error("out-of-range range column accepted")
	}
}

func TestReassembleValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tab := fdTable(rng, 500, 0.1)
	idx, err := core.Build(tab, coreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Reassemble(nil, shard.Ranges{Col: -1}, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := shard.Reassemble([]*core.COAX{idx, nil}, shard.Ranges{Col: 0, Cuts: []float64{5}}, 0); err == nil {
		t.Error("nil shard accepted")
	}
	if _, err := shard.Reassemble([]*core.COAX{idx, idx}, shard.Ranges{Col: 0}, 0); err == nil {
		t.Error("missing cuts accepted")
	}
	if _, err := shard.Reassemble([]*core.COAX{idx, idx}, shard.Ranges{Col: 0, Cuts: []float64{2, 1}}, 0); err == nil {
		t.Error("unsorted cuts accepted")
	}
	if _, err := shard.Reassemble([]*core.COAX{idx, idx}, shard.Ranges{Col: 99, Cuts: []float64{5}}, 0); err == nil {
		t.Error("bad range column accepted")
	}
	if _, err := shard.Reassemble([]*core.COAX{idx, idx}, shard.Ranges{Col: -1, Cuts: []float64{5}}, 0); err == nil {
		t.Error("column -1 over two shards accepted")
	}
	if _, err := shard.Reassemble([]*core.COAX{idx}, shard.Ranges{Col: -2}, 0); err == nil {
		t.Error("column -2 accepted")
	}
	// One shard routes nothing, so its column may be -1 (a single-index
	// file opened as one slot); it serves and takes mutations either way.
	for _, col := range []int{0, -1} {
		c, err := core.Build(tab, coreOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, err := shard.Reassemble([]*core.COAX{c}, shard.Ranges{Col: col}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if s.RangeColumn() != col || s.Cuts() != nil {
			t.Errorf("column %d: reassembled on column %d with cuts %v", col, s.RangeColumn(), s.Cuts())
		}
		row := []float64{1, 2, 3, 4}
		if err := s.Insert(row); err != nil {
			t.Fatalf("column %d: insert: %v", col, err)
		}
		if got := index.Count(s, index.Full(tab.Dims())); got != tab.Len()+1 {
			t.Errorf("column %d: reassembled single shard counts %d rows, want %d", col, got, tab.Len()+1)
		}
		if err := s.Update(row, []float64{5, 6, 7, 8}); err != nil {
			t.Fatalf("column %d: update: %v", col, err)
		}
		if err := s.Delete([]float64{5, 6, 7, 8}); err != nil {
			t.Fatalf("column %d: delete: %v", col, err)
		}
		if lo, hi := s.ShardSpan(index.Full(tab.Dims())); lo != 0 || hi != 0 {
			t.Errorf("column %d: full rectangle spans shards [%d, %d], want [0, 0]", col, lo, hi)
		}
	}
}

func TestStatsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	tab := fdTable(rng, 2000, 0.1)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := s.BuildStats()
	if st.Shards != 4 || st.Rows != tab.Len() || st.Dims != 4 {
		t.Errorf("stats = %+v", st)
	}
	sum := 0
	for _, n := range st.RowsPerShard {
		sum += n
	}
	if sum != tab.Len() {
		t.Errorf("per-shard rows sum to %d, want %d", sum, tab.Len())
	}
	if st.MemoryOverheadB != s.MemoryOverhead() || st.MemoryOverheadB <= 0 {
		t.Errorf("overhead accounting inconsistent: %d vs %d", st.MemoryOverheadB, s.MemoryOverhead())
	}
	if s.Name() != "COAX-sharded" || s.NumShards() != 4 {
		t.Error("identity accessors broken")
	}
}

// BuildSlots builds only the slots it keeps, each the shard Build would
// build in that slot — the same rows, directory and cuts — so a cluster
// node hosting a few of the K slots indexes only their rows.
func TestBuildSlotsKeepsOnlyItsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tab := fdTable(rng, 4000, 0.1)
	so := shard.Options{NumShards: 5, Column: -1}
	whole, err := shard.Build(tab, coreOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := shard.BuildSlots(tab, coreOptions(), so, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 || slots[1] == nil || slots[4] == nil {
		t.Fatalf("kept slots %v, want 1 and 4", slots)
	}
	for i, s := range slots {
		ranges, slot, ok := s.Slot()
		if !ok || slot != i || ranges.Col != whole.RangeColumn() || !slices.Equal(ranges.Cuts, whole.Cuts()) || s.NumShards() != 1 {
			t.Fatalf("slot %d reports slot %d (%v) of column %d cut at %v; the build cuts column %d at %v",
				i, slot, ok, ranges.Col, ranges.Cuts, whole.RangeColumn(), whole.Cuts())
		}
		var want, got *dataset.Table
		var wantOverhead int64
		whole.WithShard(i, func(c *core.COAX) error { want, wantOverhead = c.LiveRows(), c.MemoryOverhead(); return nil })
		s.WithShard(0, func(c *core.COAX) error { got = c.LiveRows(); return nil })
		if s.Len() != want.Len() || !slices.Equal(got.Data, want.Data) || s.MemoryOverhead() != wantOverhead {
			t.Fatalf("slot %d holds %d rows (%d B), Build's shard %d holds %d (%d B)", i, s.Len(), s.MemoryOverhead(), i, want.Len(), wantOverhead)
		}
	}
	if _, err := shard.BuildSlots(tab, coreOptions(), so, []int{5}); err == nil {
		t.Error("a slot past K accepted")
	}
}
