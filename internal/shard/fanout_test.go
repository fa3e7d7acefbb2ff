package shard_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/enginetest"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// shardedEngine is the sharded engine as the engine table drives it: Exec
// behind Scan for rows, ExecAgg and ExecRows for folds. Exec yields in
// ExecRows' merge order, so the table replays its row folds over Scan row
// for row.
func shardedEngine(s *shard.Sharded) enginetest.Engine {
	return enginetest.Engine{
		Rows: s.Scan,
		Fold: func(r index.Rect, st *index.AggState, p *index.Probe) bool {
			var rep shard.Report
			got, complete := s.ExecAgg(r, index.Spec{}, st.Spec, &rep)
			st.Merge(got)
			p.Add(rep.Core.Primary)
			p.Add(rep.Core.Outlier)
			return complete
		},
		FoldRows: func(r index.Rect, st *index.RowsState, p *index.Probe) bool {
			var rep shard.Report
			got, complete := s.ExecRows([]index.Rect{r}, index.Spec{}, *st, &rep)
			*st = got[0]
			p.Add(rep.Core.Primary)
			p.Add(rep.Core.Outlier)
			return complete
		},
	}
}

// TestFanOut drives the one fan-out — the fold behind Exec, ExecAgg,
// ExecRows and BatchQuery — with a pool of workers and with the pool of one
// that runs inline on the caller. "reference" is the sharded engine's rows
// of the engine table (internal/enginetest); the rest pin what each entry
// point promises on top of the answer: stopping, limits, merge order, row
// ownership, the mutating visitor, and one coax_queries_total per query.
// Run under -race.
func TestFanOut(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		testFanOut(t, shard.Options{NumShards: 6, Workers: 4, Column: 3})
	})
	t.Run("inline", func(t *testing.T) {
		testFanOut(t, shard.Options{NumShards: 3, Workers: 1, Column: -1})
	})
}

func testFanOut(t *testing.T, so shard.Options) {
	rng := rand.New(rand.NewSource(61))
	tab := fdTable(rng, 12000, 0.15)
	fresh := fdTable(rng, 900, 0.3)
	for _, tb := range []*dataset.Table{tab, fresh} {
		enginetest.Quantize(tb, 3) // the aggregated column
		for i := 0; i < tb.Len(); i++ {
			tb.Row(i)[2] = math.Floor(tb.Row(i)[2] / 10) // categorical, to group by
		}
	}
	s, err := shard.Build(tab, coreOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	full := index.Full(tab.Dims())
	countAll := index.AggSpec{Op: index.AggCount, Col: -1, Group: -1}

	t.Run("reference", func(t *testing.T) {
		live := enginetest.NewLive(tab)
		insert := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := s.Insert(fresh.Row(i)); err != nil {
					t.Fatal(err)
				}
				live.Insert(fresh.Row(i))
			}
		}
		remove := func(lo, hi int) {
			for i := lo; i < hi; i += 2 {
				if err := s.Delete(tab.Row(i)); err != nil || !live.Delete(tab.Row(i)) {
					t.Fatalf("Delete(%v): %v", tab.Row(i), err)
				}
			}
		}
		for _, state := range []struct {
			name string
			prep func()
		}{
			{"fresh", func() {}},
			{"overflow", func() { insert(0, 400) }},
			{"compacted", s.Compact},
			{"tombstoned", func() { remove(0, 1500) }},
			{"overflow+tombstoned", func() { insert(400, 900); remove(1500, 2500) }},
		} {
			state.prep()
			rects := []index.Rect{full}
			for i := 0; i < 16; i++ {
				rects = append(rects, workload.RandRect(rng, tab))
			}
			enginetest.Check(t, state.name, live.Table(tab.Cols), shardedEngine(s), rects, 3, 2)
		}
	})
	total := s.Len()

	t.Run("declined yield", func(t *testing.T) {
		calls := 0
		if s.Exec(full, index.Spec{}, func([]float64) bool { calls++; return false }, nil) || calls != 1 {
			t.Fatalf("Exec went on for %d yields after the first declined", calls)
		}
	})

	t.Run("limit across shards", func(t *testing.T) {
		// Exactly the first k rows of ExecRows' merge order, though every
		// probe stops early.
		const k = 10
		var rep shard.Report
		var got [][]float64
		if s.Exec(full, index.Spec{Limit: k}, func(row []float64) bool { got = append(got, row); return true }, &rep) {
			t.Fatal("limited Exec reported complete")
		}
		head, _ := s.ExecRows([]index.Rect{full}, index.Spec{}, index.RowsState{Keep: k}, nil)
		if want := heldRows(&head[0]); !rowsEqual(got, want) {
			t.Fatalf("Limit %d delivered %d rows, not the first %d of the merge order", k, len(got), len(want))
		}
		if scanned := rep.Core.Primary.Scanned + rep.Core.Outlier.Scanned; scanned >= int64(total) {
			t.Fatalf("Limit %d still scanned %d of %d rows", k, scanned, total)
		}
		n := 0
		if s.Exec(full, index.Spec{Limit: k}, func([]float64) bool { n++; return n < k }, nil) || n != k {
			t.Fatalf("yield stopping at the limit saw %d rows, want exactly %d and an incomplete scan", n, k)
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		// Mid-delivery, from the yield: the context is checked before every
		// row, well within the 128 rows of a page.
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		if s.Exec(full, index.Spec{Ctx: ctx}, func([]float64) bool { n++; cancel(); return true }, nil) {
			t.Fatal("cancelled Exec reported complete")
		}
		if n < 1 || n > 128 {
			t.Fatalf("%d rows delivered after the first cancelled the context, want at most 128", n)
		}
		// Already cancelled: nothing is delivered, the fold is partial.
		if s.Exec(full, index.Spec{Ctx: ctx}, func([]float64) bool { t.Error("row delivered on a cancelled context"); return true }, nil) {
			t.Fatal("pre-cancelled Exec reported complete")
		}
		st, complete := s.ExecAgg(full, index.Spec{Ctx: ctx}, countAll, nil)
		if complete || st.All.Count >= int64(total) {
			t.Fatalf("pre-cancelled ExecAgg: complete=%v, counted %d of %d", complete, st.All.Count, total)
		}
		// Cancelled from outside while folding: whenever the call returns, a
		// complete fold holds every row, and a done context is never complete.
		ctx, cancel = context.WithCancel(context.Background())
		go cancel()
		st, complete = s.ExecAgg(full, index.Spec{Ctx: ctx}, countAll, nil)
		if complete && st.All.Count != int64(total) {
			t.Fatalf("ExecAgg reported complete with %d of %d rows", st.All.Count, total)
		}
		<-ctx.Done()
		if _, complete = s.ExecAgg(full, index.Spec{Ctx: ctx}, countAll, nil); complete {
			t.Fatal("ExecAgg on a done context reported complete")
		}
		if got, complete := s.ExecRows([]index.Rect{full}, index.Spec{Ctx: ctx}, index.RowsState{Keep: -1}, nil); complete || got[0].Count >= int64(total) {
			t.Fatalf("pre-cancelled ExecRows: complete=%v, counted %d of %d", complete, got[0].Count, total)
		}
		// The caller's own abort hook (a cluster node's cancel flag) stops
		// every probe too.
		aborted := index.Spec{Abort: func() bool { return true }}
		if got, complete := s.ExecRows([]index.Rect{full}, aborted, index.RowsState{}, nil); complete || got[0].Count >= int64(total) {
			t.Fatalf("aborted ExecRows: complete=%v, counted %d of %d", complete, got[0].Count, total)
		}
	})

	t.Run("retained rows", func(t *testing.T) {
		// Stable copies, in the merge order every call repeats.
		all, _ := s.ExecRows([]index.Rect{full}, index.Spec{}, index.RowsState{Keep: -1}, nil)
		var retained, copies [][]float64
		s.Exec(full, index.Spec{}, func(row []float64) bool {
			retained = append(retained, row)
			copies = append(copies, append([]float64(nil), row...))
			return true
		}, nil)
		if !rowsEqual(copies, heldRows(&all[0])) || len(retained) != total {
			t.Fatalf("Exec delivered %d of %d rows, not in ExecRows' order", len(retained), total)
		}
		for i := range retained {
			if !rowsEqual(retained[i:i+1], copies[i:i+1]) || cap(retained[i]) != len(retained[i]) {
				t.Fatalf("retained row %d: %v (cap %d), was %v when delivered", i, retained[i], cap(retained[i]), copies[i])
			}
		}
	})

	t.Run("queries counted once", func(t *testing.T) {
		empty := index.Full(tab.Dims())
		empty.Min[0], empty.Max[0] = 5, 1
		counted := func(run func()) int64 {
			before := obs.Queries.Value()
			run()
			return obs.Queries.Value() - before
		}
		for _, r := range []index.Rect{full, empty} {
			if n := counted(func() { s.Exec(r, index.Spec{}, func([]float64) bool { return true }, nil) }); n != 1 {
				t.Fatalf("Exec counted %d queries", n)
			}
			if n := counted(func() { s.ExecAgg(r, index.Spec{}, countAll, nil) }); n != 1 {
				t.Fatalf("ExecAgg counted %d queries", n)
			}
			if n := counted(func() { s.ExecRows([]index.Rect{r}, index.Spec{}, index.RowsState{Keep: 5}, nil) }); n != 1 {
				t.Fatalf("ExecRows counted %d queries", n)
			}
		}
		if n := counted(func() { s.BatchQuery([]index.Rect{full, empty, full}, func(int, []float64) {}) }); n != 3 {
			t.Fatalf("BatchQuery of 3 rectangles counted %d queries", n)
		}
	})

	// Last: it empties the index. The visitor of Exec/BatchQuery runs with
	// no shard lock held, so it may mutate the index it is visiting.
	t.Run("mutating BatchQuery visitor", func(t *testing.T) {
		lastQuery := -1
		s.BatchQuery([]index.Rect{full, full}, func(qi int, row []float64) {
			if qi < lastQuery {
				t.Fatalf("query %d delivered after query %d", qi, lastQuery)
			}
			lastQuery = qi
			if err := s.Delete(row); (err == nil) != (qi == 0) {
				t.Fatalf("query %d: Delete(%v) = %v", qi, row, err)
			}
		})
		if s.Len() != 0 || lastQuery != 1 {
			t.Fatalf("%d rows left after the visitor deleted every row it was shown (last query %d)", s.Len(), lastQuery)
		}
	})
}

// heldRows lists the rows a fold holds.
func heldRows(st *index.RowsState) [][]float64 {
	rows := make([][]float64, st.Held())
	for i := range rows {
		rows[i] = st.Row(i)
	}
	return rows
}
