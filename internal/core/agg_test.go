package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/enginetest"
	"github.com/coax-index/coax/internal/index"
)

// coaxEngine is COAX as the engine table drives it: Exec behind Scan for
// rows, ExecAgg for folds, the two partitions' counters summed.
func coaxEngine(c *COAX) enginetest.Engine {
	fold := func(r index.Rect, st interface{ FoldBatch(*index.Batch) bool }, p *index.Probe) bool {
		var rep ProbeReport
		complete := c.ExecAgg(r, index.Spec{}, st, &rep)
		p.Add(rep.Primary)
		p.Add(rep.Outlier)
		return complete
	}
	return enginetest.Engine{
		Rows:     c.Scan,
		Fold:     func(r index.Rect, st *index.AggState, p *index.Probe) bool { return fold(r, st, p) },
		FoldRows: func(r index.Rect, st *index.RowsState, p *index.Probe) bool { return fold(r, st, p) },
	}
}

// TestExecAggMatchesExec is COAX's rows of the engine table
// (internal/enginetest): on both outlier-index kinds, across fresh, inserted
// (overflow), tombstoned, both and compacted states, Exec and ExecAgg — the
// two consumers of the one plan — are compared against the reference row
// loop over the live rows: the same multiset, bit-identical aggregates for
// all five ops and a grouped one, and a ProbeReport whose counters add up
// and do not depend on the consumer.
func TestExecAggMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Column 3 is aggregated (quantized), column 2 categorical.
	shape := func(tab *dataset.Table) *dataset.Table {
		enginetest.Quantize(tab, 3)
		for i := 0; i < tab.Len(); i++ {
			tab.Row(i)[2] = math.Floor(tab.Row(i)[2] / 10)
		}
		return tab
	}
	tab := shape(fdTable(rng, 20000, 0.12))
	fresh := shape(fdTable(rng, 1500, 0.3)) // rows to insert: inliers and outliers

	t.Run("grid-outliers", func(t *testing.T) {
		c, err := Build(tab, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		live := enginetest.NewLive(tab)
		insert := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := c.Insert(fresh.Row(i)); err != nil {
					t.Fatal(err)
				}
				live.Insert(fresh.Row(i))
			}
		}
		remove := func(lo, hi int) {
			for i := lo; i < hi; i += 2 {
				if err := c.Delete(tab.Row(i)); err != nil || !live.Delete(tab.Row(i)) {
					t.Fatalf("Delete(%v): %v", tab.Row(i), err)
				}
			}
		}
		states := []struct {
			name string
			prep func()
		}{
			{"fresh", func() {}},
			{"overflow", func() { insert(0, 700) }},
			{"compacted", func() { c.Compact() }},
			{"tombstoned", func() { remove(0, 2000) }},
			{"overflow+tombstoned", func() { insert(700, 1500); remove(2000, 3000) }},
		}
		for _, state := range states {
			state.prep()
			rects := []index.Rect{index.Full(4)}
			for qi := 0; qi < 24; qi++ {
				rects = append(rects, randQuery(rng, tab))
			}
			enginetest.Check(t, state.name, live.Table(tab.Cols), coaxEngine(c), rects, 3, 2)
		}
	})
}

// TestExecAggCancellation verifies a cancelled context stops the fold and
// reports incompleteness, mirroring Exec.
func TestExecAggCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := fdTable(rng, 20000, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
	if c.ExecAgg(index.Full(4), index.Spec{Ctx: ctx}, st, nil) {
		t.Fatal("cancelled ExecAgg reported complete")
	}
	full := index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
	if !c.ExecAgg(index.Full(4), index.Spec{}, full, nil) {
		t.Fatal("live ExecAgg incomplete")
	}
	if st.All.Count >= full.All.Count {
		t.Fatalf("cancelled fold counted %d of %d rows", st.All.Count, full.All.Count)
	}
}
