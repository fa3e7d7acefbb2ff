package coax_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/workload"
)

// queryV2Indexes builds the two engine configurations the query surface
// must agree on: one shard (inline) and four (pooled).
func queryV2Indexes(t *testing.T, tab *coax.Table) map[string]*coax.Index {
	t.Helper()
	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 5000
	sharded := build(t, tab, opt, 4)
	sharded.SetWorkers(4)
	return map[string]*coax.Index{"one-shard-grid": build(t, tab, opt, 1), "sharded-grid": sharded}
}

// rowKey renders a row for multiset comparison.
func rowKey(row []float64) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = fmt.Sprintf("%x", math.Float64bits(v))
	}
	return strings.Join(parts, ",")
}

func sortedKeys(rows [][]float64) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// TestV2EquivalentToLegacy is the property test of the acceptance
// criteria: for random rectangles, every way to run a rectangle — Run and
// Collect via FromRect, Count via per-dimension predicates — answers exactly
// the multiset a full scan of the table finds, on one-shard and 4-shard
// indexes with both outlier kinds, and Limit(k) returns exactly
// min(k, total) rows all of which belong to that multiset.
func TestV2EquivalentToLegacy(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(12000))
	indexes := queryV2Indexes(t, tab)
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 60; trial++ {
		r := workload.RandRect(rng, tab)
		var scanned [][]float64
		for i := 0; i < tab.Len(); i++ {
			if r.Contains(tab.Row(i)) {
				scanned = append(scanned, tab.Row(i))
			}
		}
		want := sortedKeys(scanned)
		for name, idx := range indexes {
			var visited [][]float64
			if _, err := coax.FromRect(r).Run(idx, func(row []float64) bool { visited = append(visited, row); return true }); err != nil {
				t.Fatalf("%s: FromRect.Run: %v", name, err)
			}
			if g := sortedKeys(visited); fmt.Sprint(g) != fmt.Sprint(want) {
				t.Fatalf("%s rect %v: Run visited %d rows, a full scan finds %d", name, r, len(visited), len(scanned))
			}

			// Path 1: FromRect.
			got, err := coax.FromRect(r).Collect(idx)
			if err != nil {
				t.Fatalf("%s: FromRect.Collect: %v", name, err)
			}
			if g := sortedKeys(got); fmt.Sprint(g) != fmt.Sprint(want) {
				t.Fatalf("%s rect %v: FromRect returned %d rows, a full scan finds %d", name, r, len(got), len(scanned))
			}

			// Path 2: the same plan expressed as positional predicates.
			q := coax.NewQuery()
			for d := 0; d < r.Dims(); d++ {
				if math.IsInf(r.Min[d], -1) && math.IsInf(r.Max[d], 1) {
					continue
				}
				q.WhereDim(d, coax.Between(r.Min[d], r.Max[d]))
			}
			n, err := q.Count(idx)
			if err != nil {
				t.Fatalf("%s: builder Count: %v", name, err)
			}
			if n != len(scanned) {
				t.Fatalf("%s rect %v: builder counted %d, a full scan %d", name, r, n, len(scanned))
			}

			// Limit(k): exactly min(k, total) rows, all from the full scan.
			k := 1 + rng.Intn(20)
			limited, err := coax.FromRect(r).Limit(k).Collect(idx)
			if err != nil {
				t.Fatalf("%s: Limit.Collect: %v", name, err)
			}
			if wantN := min(k, len(scanned)); len(limited) != wantN {
				t.Fatalf("%s rect %v: Limit(%d) returned %d rows, want %d", name, r, k, len(limited), wantN)
			}
			within := func(what string, rows [][]float64) {
				set := make(map[string]int, len(scanned))
				for _, row := range scanned {
					set[rowKey(row)]++
				}
				for _, row := range rows {
					key := rowKey(row)
					if set[key] == 0 {
						t.Fatalf("%s rect %v: %s returned row %v outside the full scan", name, r, what, row)
					}
					set[key]--
				}
			}
			within(fmt.Sprintf("Limit(%d)", k), limited)

			// Head(k): the exact count and the first k rows of the whole
			// result; with a Limit, the count capped at it.
			all, err := coax.FromRect(r).Head(idx, -1)
			if err != nil {
				t.Fatalf("%s: Head: %v", name, err)
			}
			if all.Count != len(scanned) || len(all.Rows) != len(scanned) || !all.Complete {
				t.Fatalf("%s rect %v: Head(-1) = %d rows of %d (complete %v), a full scan %d", name, r, len(all.Rows), all.Count, all.Complete, len(scanned))
			}
			within("Head(-1)", all.Rows)
			head, err := coax.FromRect(r).Head(idx, k)
			if err != nil {
				t.Fatalf("%s: Head: %v", name, err)
			}
			if head.Count != len(scanned) || fmt.Sprint(head.Rows) != fmt.Sprint(all.Rows[:min(k, len(scanned))]) {
				t.Fatalf("%s rect %v: Head(%d) = %d rows of %d, not the first of Head(-1)'s %d", name, r, k, len(head.Rows), head.Count, len(all.Rows))
			}
			capped, err := coax.FromRect(r).Limit(k).Head(idx, 1)
			if err != nil {
				t.Fatalf("%s: Limit(%d).Head: %v", name, k, err)
			}
			if wantN := min(k, len(scanned)); capped.Count != wantN || len(capped.Rows) != min(1, wantN) || capped.Complete != (len(scanned) < k) {
				t.Fatalf("%s rect %v: Limit(%d).Head(1) = %d rows of %d (complete %v), total %d", name, r, k, len(capped.Rows), capped.Count, capped.Complete, len(scanned))
			}
			within("Limit.Head", capped.Rows)
		}
	}
}

// Count is a popcount: on a 4-shard index it allocates the same for 2 000
// matches as for 32 000 — a fixed few kilobytes of fan-out bookkeeping, no
// row copied — and so do a Count capped by a Limit and an Explain, which
// keep no row either.
func TestCountAllocsIndependentOfMatches(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(32000))
	idx := pooledSharded(t, tab)
	count := func(q *coax.Query) func() (int, error) { return func() (int, error) { return q.Count(idx) } }
	cost := func(run func() (int, error), want int) (mallocs, allocated uint64) {
		t.Helper()
		if n, err := run(); err != nil || n != want {
			t.Fatalf("counted %d, %v; want %d", n, err, want)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	fewMallocs, _ := cost(count(coax.NewQuery().WhereDim(0, coax.Between(1000, 2999))), 2000)
	manyMallocs, manyBytes := cost(count(coax.NewQuery()), 32000)
	t.Logf("32000 matches: %d mallocs, %d bytes; 2000 matches: %d mallocs", manyMallocs, manyBytes, fewMallocs)
	if manyBytes >= 32<<10 {
		t.Errorf("Count over 32000 matches allocated %d bytes, ceiling %d", manyBytes, 32<<10)
	}
	if manyMallocs > fewMallocs+fewMallocs/10 {
		t.Errorf("Count made %d mallocs over 32000 matches, %d over 2000: allocation grows with matches", manyMallocs, fewMallocs)
	}
	explain := func() (int, error) {
		exp, err := coax.NewQuery().Explain(idx)
		if exp == nil {
			return 0, err
		}
		return exp.RowsEmitted, err
	}
	for _, c := range []struct {
		name string
		run  func() (int, error)
		want int
	}{
		{"Limit(30000).Count", count(coax.NewQuery().Limit(30000)), 30000},
		{"Explain", explain, 32000},
	} {
		mallocs, bytes := cost(c.run, c.want)
		t.Logf("%s: %d mallocs, %d bytes", c.name, mallocs, bytes)
		if bytes >= 32<<10 {
			t.Errorf("%s allocated %d bytes, ceiling %d", c.name, bytes, 32<<10)
		}
	}
}

// pooledSharded builds tab into a pooled 4-shard index cut on lat (column
// 2), which the queries of its callers leave open, so every one of them
// spans all four shards.
func pooledSharded(t *testing.T, tab *coax.Table) *coax.Index {
	t.Helper()
	so := coax.DefaultShardOptions()
	so.NumShards, so.Workers, so.Column = 4, 4, 2
	idx, err := coax.NewBuilder(coax.TableSchema(tab), coax.DefaultOptions()).BuildSharded(coax.NewTableSource(tab, 0), so)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestRunOrderDeterministic: Run folds each shard and yields the shards in
// order, so Collect on a pooled 4-shard index returns the same rows in
// the same order every time — Head's rows.
func TestRunOrderDeterministic(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(20000))
	idx := pooledSharded(t, tab)
	head, err := coax.NewQuery().Head(idx, -1)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		got, err := coax.NewQuery().Collect(idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tab.Len() || !slices.EqualFunc(got, head.Rows, slices.Equal[[]float64]) {
			t.Fatalf("Collect run %d returned %d rows in another order than Head's %d", run, len(got), len(head.Rows))
		}
	}
}

// TestWhereByName resolves predicates against column names on every
// engine, including after a snapshot round trip.
func TestWhereByName(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(8000))
	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 4000
	idx := build(t, tab, opt, 1)

	// osm columns: id, timestamp, lat, lon.
	q := coax.NewQuery().Where("lat", coax.Between(-10, 10)).Where("lon", coax.AtLeast(0))
	n, err := q.Count(idx)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		if row[2] >= -10 && row[2] <= 10 && row[3] >= 0 {
			want++
		}
	}
	if n != want {
		t.Fatalf("name-based Count = %d, want %d", n, want)
	}

	// Unknown names and invalid predicates are compile errors.
	if _, err := coax.NewQuery().Where("altitude", coax.Eq(1)).Count(idx); err == nil {
		t.Error("unknown column did not error")
	}
	if _, err := coax.NewQuery().Where("lat", coax.Between(5, 4)).Count(idx); err == nil {
		t.Error("inverted Between did not error")
	}
	if _, err := coax.NewQuery().Where("lat", coax.Eq(math.NaN())).Count(idx); err == nil {
		t.Error("NaN predicate did not error")
	}
	if _, err := coax.NewQuery().WhereDim(9, coax.Eq(1)).Count(idx); err == nil {
		t.Error("out-of-range WhereDim did not error")
	}

	// Names survive the snapshot round trip (the "cols" section).
	path := t.TempDir() + "/named.coax"
	if err := coax.SaveShardedFileV3(path, idx, false); err != nil {
		t.Fatal(err)
	}
	back, err := coax.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := q.Count(serving(t, back))
	if err != nil {
		t.Fatalf("name-based query on loaded snapshot: %v", err)
	}
	if n2 != want {
		t.Fatalf("loaded snapshot counted %d, want %d", n2, want)
	}
}

// TestShardedCancellation asserts the fan-out contract: a cancelled
// context stops a sharded scan promptly — no further rows are delivered
// after cancellation, and the call returns the context's error.
func TestShardedCancellation(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(40000))
	idx := build(t, tab, coax.DefaultOptions(), 4)
	idx.SetWorkers(4) // force the pooled fan-out even on 1 CPU

	// Pre-cancelled: nothing may be delivered.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := coax.NewQuery().WithContext(done).Run(idx, func([]float64) bool {
		t.Error("row delivered on a cancelled context")
		return true
	})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled Run error = %v, want context.Canceled", err)
	}
	if res.Complete || res.Rows != 0 {
		t.Fatalf("pre-cancelled Run = %+v, want 0 incomplete rows", res)
	}

	// Cancelled mid-scan by the visitor: the fan-out stops within one page
	// (the context is polled before every row yielded, and by every probe
	// once per page) instead of yielding the remaining tens of thousands of
	// rows.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	res, err = coax.NewQuery().WithContext(ctx).Run(idx, func([]float64) bool {
		cancel2()
		return true
	})
	if err != context.Canceled {
		t.Fatalf("mid-scan Run error = %v, want context.Canceled", err)
	}
	if res.Complete {
		t.Error("cancelled scan reported Complete")
	}
	const pageRows = 128
	if res.Rows < 1 || res.Rows > pageRows {
		t.Fatalf("rows delivered after mid-scan cancellation = %d, want within one %d-row page", res.Rows, pageRows)
	}
}

// TestLimitStopsScanWork asserts early termination saves engine work, not
// just visitor calls: on a one-shard index (inline, deterministic) a
// Limit(5) scan examines far fewer rows than the full scan does.
func TestLimitStopsScanWork(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(30000))
	idx := build(t, tab, coax.DefaultOptions(), 1)
	full, err := coax.NewQuery().Explain(idx)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := coax.NewQuery().Limit(5).Explain(idx)
	if err != nil {
		t.Fatal(err)
	}
	fullWork := full.Primary.RowsScanned + full.Outlier.RowsScanned
	limitedWork := limited.Primary.RowsScanned + limited.Outlier.RowsScanned
	if fullWork < int64(tab.Len()) {
		t.Fatalf("full scan examined %d rows of %d", fullWork, tab.Len())
	}
	if limitedWork*100 > fullWork {
		t.Fatalf("Limit(5) examined %d rows, full scan %d — early termination saved no work", limitedWork, fullWork)
	}
	if !limited.Limited || limited.Complete {
		t.Fatalf("limited explain = limited:%v complete:%v, want limited, incomplete", limited.Limited, limited.Complete)
	}
	if limited.RowsEmitted != 5 {
		t.Fatalf("RowsEmitted = %d, want 5", limited.RowsEmitted)
	}
}

// TestExplainAirline is the acceptance scenario: an airline-style query on
// a dependent column shows the predictor-interval translation and the
// primary/outlier row-scan split.
func TestExplainAirline(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(40000))
	idx := build(t, tab, coax.DefaultOptions(), 1)
	st := idx.BuildStats()
	if len(st.Groups) == 0 {
		t.Fatal("no soft-FD groups detected on the airline table")
	}

	q := coax.NewQuery().Where("airtime", coax.Between(60, 90)).WithExplain()
	var rows int
	res, err := q.Run(idx, func([]float64) bool { rows++; return true })
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Explain
	if exp == nil {
		t.Fatal("WithExplain produced no report")
	}
	if len(exp.Translations) == 0 {
		t.Fatal("explain shows no dependency translation for the airtime constraint")
	}
	tr := exp.Translations[0]
	if tr.Dependent != "airtime" {
		t.Errorf("translation dependent = %q, want airtime", tr.Dependent)
	}
	if !tr.Feasible || tr.PredictorMin == nil || tr.PredictorMax == nil {
		t.Fatalf("translation %+v: want a feasible finite predictor interval", tr)
	}
	if *tr.PredictorMin >= *tr.PredictorMax {
		t.Errorf("degenerate predictor interval [%g, %g]", *tr.PredictorMin, *tr.PredictorMax)
	}
	if !exp.PrimaryProbed || exp.Primary.RowsScanned == 0 {
		t.Errorf("primary probe missing from explain: %+v", exp.Primary)
	}
	if !exp.OutlierProbed || exp.Outlier.RowsScanned == 0 {
		t.Errorf("outlier probe missing from explain: %+v", exp.Outlier)
	}
	if got := exp.Primary.RowsMatched + exp.Outlier.RowsMatched; got != int64(rows) {
		t.Errorf("explain matched %d rows, visitor saw %d", got, rows)
	}
	r, err := q.Compile(idx)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := coax.FromRect(r).Count(idx); err != nil || n != rows {
		t.Errorf("Run delivered %d rows, the compiled rectangle counts %d (%v)", rows, n, err)
	}

	// A 4-shard index reports its fan-out on top of the same numbers.
	sharded := build(t, tab, coax.DefaultOptions(), 4)
	sexp, err := coax.NewQuery().Where("airtime", coax.Between(60, 90)).Explain(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if sexp.ShardsProbed == 0 {
		t.Errorf("sharded explain probed no shards: %+v", sexp)
	}
	if sexp.ShardsProbed+sexp.ShardsPruned != sharded.NumShards() {
		t.Errorf("shards probed %d + pruned %d != %d", sexp.ShardsProbed, sexp.ShardsPruned, sharded.NumShards())
	}
	if len(sexp.Translations) == 0 {
		t.Error("sharded explain lost the translation steps")
	}
}

// TestStableOwnership asserts the ownership contract: rows handed to Run's
// visitor are stable copies that survive later index mutation and
// compaction, on one shard and on four.
func TestStableOwnership(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(5000))
	for _, shards := range []int{1, 2} {
		idx := build(t, tab, coax.DefaultOptions(), shards)
		var retained, copies [][]float64
		_, err := coax.NewQuery().Limit(50).Run(idx, func(row []float64) bool {
			retained = append(retained, row)
			copies = append(copies, append([]float64(nil), row...))
			return true
		})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		// Mutate and compact: aliasing rows would be rewritten.
		for i := 0; i < 100; i++ {
			if err := idx.Insert([]float64{float64(i), float64(i), 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		idx.Compact()
		for i := range retained {
			if rowKey(retained[i]) != rowKey(copies[i]) {
				t.Fatalf("%d shards: row %d changed after mutation", shards, i)
			}
		}
	}
}

// TestMutatingVisitorDoesNotDeadlock regression-tests the fan-out's lock
// discipline: Run visits only once every probe's shard read lock is
// released, so a visitor that mutates the index does not deadlock against
// the scan.
func TestMutatingVisitorDoesNotDeadlock(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(3000))
	idx := build(t, tab, coax.DefaultOptions(), 4)
	idx.SetWorkers(4)
	deleted := 0
	res, err := coax.NewQuery().Limit(200).Run(idx, func(row []float64) bool {
		if err := idx.Delete(row); err == nil { // rows are stable copies
			deleted++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Error("mutating visitor deleted nothing")
	}
	if idx.Len() != tab.Len()-deleted {
		t.Errorf("index holds %d rows after %d deletes of %d", idx.Len(), deleted, tab.Len())
	}
	_ = res
}

// TestRunSeesIndexAsOfCall: Run folds every shard before its first visit,
// so a visitor that deletes the last shard's rows while it visits the first
// shard is still shown them — it visits the index as of the call, which is
// Collect's answer taken before it. Inline (one worker), the shards fold one
// after another in shard order, so a visit between two folds would show.
func TestRunSeesIndexAsOfCall(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(4000))
	idx := build(t, tab, coax.DefaultOptions(), 4)
	idx.SetWorkers(1)
	before, err := coax.NewQuery().Collect(idx)
	if err != nil {
		t.Fatal(err)
	}
	var last *coax.Table
	idx.WithShard(idx.NumShards()-1, func(c *core.COAX) error { last = c.LiveRows(); return nil })
	if last.Len() == 0 || last.Len() == len(before) {
		t.Fatalf("last shard holds %d of %d rows: nothing to delete behind the first", last.Len(), len(before))
	}
	var visited [][]float64
	_, err = coax.NewQuery().Run(idx, func(row []float64) bool {
		if visited == nil {
			for i := 0; i < last.Len(); i++ {
				if err := idx.Delete(last.Row(i)); err != nil {
					t.Fatalf("Delete(%v): %v", last.Row(i), err)
				}
			}
		}
		visited = append(visited, row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(visited, before, slices.Equal[[]float64]) {
		t.Fatalf("Run visited %d rows, Collect before the call returned %d (or another order)", len(visited), len(before))
	}
	if idx.Len() != len(before)-last.Len() {
		t.Fatalf("index holds %d rows after deleting %d of %d", idx.Len(), last.Len(), len(before))
	}
}

// TestCancelledZeroMatchScanStops regression-tests page-granularity
// cancellation: a query whose candidate pages match nothing never calls
// the visitor, so a yield-side check alone would let a cancelled scan run
// to completion. The abort hook is polled per page instead — a cancelled
// context must stop the scan before it grinds through the candidates.
func TestCancelledZeroMatchScanStops(t *testing.T) {
	// A bimodal column: every value is 0 or 100, so mode∈[40,60] is inside
	// the index bounds (not prunable) yet matches no row.
	tab := coax.NewTable([]string{"x", "mode"})
	for i := 0; i < 100000; i++ {
		tab.Append([]float64{float64(i), float64((i % 2) * 100)})
	}
	idx := build(t, tab, coax.DefaultOptions(), 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := coax.NewQuery().Where("mode", coax.Between(40, 60)).WithContext(ctx).WithExplain()
	res, err := q.Run(idx, func([]float64) bool {
		t.Error("visitor called on a zero-match query")
		return true
	})
	if err != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	scanned := res.Explain.Primary.RowsScanned + res.Explain.Outlier.RowsScanned
	if scanned != 0 {
		t.Fatalf("pre-cancelled zero-match query still scanned %d rows", scanned)
	}

	// Sanity: uncancelled, the same query completes and matches nothing.
	n, err := coax.NewQuery().Where("mode", coax.Between(40, 60)).Count(idx)
	if err != nil || n != 0 {
		t.Fatalf("uncancelled zero-match query = %d, %v", n, err)
	}
}
