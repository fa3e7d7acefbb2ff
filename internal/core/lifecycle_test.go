package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/workload"
)

// TestMutationsMatchScanOracle interleaves Insert/Delete/Update/Query from
// the mixed-workload generator and checks every query against a full scan
// of the generator's live multiset.
func TestMutationsMatchScanOracle(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		tab := fdTable(rng, 4000, 0.05)
		c, err := Build(tab, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.NewMixGenerator(tab, 32, workload.MixConfig{
			InsertWeight: 1, DeleteWeight: 1, UpdateWeight: 1, QueryWeight: 2,
			OutlierFrac: 0.2,
		})
		for op := 0; op < 4000; op++ {
			o := mix.Next()
			switch o.Kind {
			case workload.OpInsert:
				if err := c.Insert(o.Row); err != nil {
					t.Fatalf("op %d insert: %v", op, err)
				}
			case workload.OpDelete:
				if err := c.Delete(o.Row); err != nil {
					t.Fatalf("op %d delete %v: %v", op, o.Row, err)
				}
			case workload.OpUpdate:
				if err := c.Update(o.Old, o.New); err != nil {
					t.Fatalf("op %d update: %v", op, err)
				}
			case workload.OpQuery:
				got := index.Count(c, o.Rect)
				want := index.Count(scan.New(mix.LiveView()), o.Rect)
				if got != want {
					t.Fatalf("op %d query: got %d rows, oracle %d", op, got, want)
				}
			}
			if op == 2000 {
				c.Compact() // mid-stream compaction must not change results
			}
			if c.Len() != mix.LiveLen() {
				t.Fatalf("op %d: Len=%d, oracle %d", op, c.Len(), mix.LiveLen())
			}
		}
	})
}

func TestDeleteAndUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tab := fdTable(rng, 1000, 0.05)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := c.Len()

	if err := c.Delete([]float64{1, 2}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := c.Delete([]float64{math.NaN(), 0, 0, 0}); err == nil {
		t.Fatal("NaN row accepted")
	}
	missing := []float64{-1e9, -1e9, -1e9, -1e9}
	if err := c.Delete(missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v, want ErrNotFound", err)
	}
	if err := c.Update(missing, tab.Row(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v, want ErrNotFound", err)
	}
	if c.Len() != n {
		t.Fatalf("failed mutations changed Len to %d (was %d)", c.Len(), n)
	}
	s := c.LifecycleStats()
	if s.Deletes != 0 || s.Updates != 0 {
		t.Fatalf("failed mutations were counted: %+v", s)
	}
}

func TestLifecycleStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tab := fdTable(rng, 8000, 0.02)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BuildStats().Groups) != 1 {
		t.Skip("FD not detected")
	}
	pm := c.BuildStats().Groups[0].Models[0]

	// One clean inlier, one gross outlier.
	x := 500.0
	inlier := []float64{0, 0, 1, 2}
	inlier[pm.X] = x
	inlier[pm.D] = pm.Model.Predict(x)
	outlier := append([]float64(nil), inlier...)
	outlier[pm.D] += 1e6
	if err := c.Insert(inlier); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(outlier); err != nil {
		t.Fatal(err)
	}
	// Delete an original row: it lives in a main page, so the delete
	// tombstones rather than removing physically.
	if err := c.Delete(tab.Row(0)); err != nil {
		t.Fatal(err)
	}

	s := c.LifecycleStats()
	if s.Inserts != 2 || s.InsertOutliers != 1 || s.Deletes != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Tombstones != 1 || s.StoredRows != s.LiveRows+1 {
		t.Fatalf("tombstones: %+v", s)
	}
	if s.TombstoneRatio <= 0 || s.OutlierRatio <= 0 {
		t.Fatalf("ratios: %+v", s)
	}
	if len(s.Drift) != 1 || s.Drift[0].Samples != 2 {
		t.Fatalf("drift: %+v", s.Drift)
	}
	// The outlier insert drags the mean residual way past the margin.
	if s.MaxDrift() < 1 {
		t.Fatalf("MaxDrift = %v, want > 1", s.MaxDrift())
	}
}

// TestRebuildHealsDrift drives the planted-FD table out of shape with
// model-violating inserts, checks the staleness rules fire, rebuilds, and
// verifies the fresh epoch restores a small outlier set while answering
// queries identically.
func TestRebuildHealsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tab := fdTable(rng, 6000, 0.02)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BuildStats().Groups) != 1 {
		t.Skip("FD not detected")
	}
	th := lifecycle.DefaultThresholds()

	// Drift: inserts whose dependent column is shifted by a constant — a
	// new regime the old model rejects wholesale but a fresh detection can
	// fit (it is still a clean linear dependency).
	mirror := mirrorOf(c, tab)
	for i := 0; i < 4000; i++ {
		x := rng.Float64() * 1000
		row := []float64{x, 2*x + 5000 + rng.NormFloat64()*4, rng.Float64() * 100, rng.NormFloat64() * 10}
		if err := c.Insert(row); err != nil {
			t.Fatal(err)
		}
		mirror.Append(row)
	}
	s := c.LifecycleStats()
	if stale, reasons := s.Stale(th); !stale {
		t.Fatalf("drifted index not stale: %+v", s)
	} else if len(reasons) == 0 {
		t.Fatal("stale with no reasons")
	}

	next, err := c.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch() != c.Epoch()+1 {
		t.Fatalf("epoch %d, want %d", next.Epoch(), c.Epoch()+1)
	}
	ns := next.LifecycleStats()
	if ns.Mutations() != 0 || ns.Tombstones != 0 {
		t.Fatalf("fresh epoch carries old counters: %+v", ns)
	}
	if ns.OutlierRatio > s.OutlierRatio/2 {
		t.Fatalf("rebuild did not shrink the outlier set: %.3f → %.3f", s.OutlierRatio, ns.OutlierRatio)
	}
	if stale, reasons := ns.Stale(th); stale {
		t.Fatalf("fresh epoch still stale: %v", reasons)
	}

	// The swap must be invisible to queries.
	oracle := scan.New(mirror)
	for q := 0; q < 200; q++ {
		r := randQuery(rng, mirror)
		want := index.Count(oracle, r)
		if got := index.Count(c, r); got != want {
			t.Fatalf("old epoch query %d: got %d, oracle %d", q, got, want)
		}
		if got := index.Count(next, r); got != want {
			t.Fatalf("new epoch query %d: got %d, oracle %d", q, got, want)
		}
	}
}

// mirrorOf clones the index's current live rows into a table for oracle
// comparisons.
func mirrorOf(c *COAX, tab *dataset.Table) *dataset.Table {
	m := dataset.NewTable(tab.Cols)
	for i := 0; i < tab.Len(); i++ {
		m.Append(tab.Row(i))
	}
	return m
}

func TestRebuildEmptyAndTinyIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	tab := fdTable(rng, 200, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Delete everything, then rebuild: the empty index must survive and
	// keep accepting inserts.
	for i := 0; i < tab.Len(); i++ {
		if err := c.Delete(tab.Row(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len=%d after deleting everything", c.Len())
	}
	next, err := c.Rebuild()
	if err != nil {
		t.Fatalf("rebuilding an emptied index: %v", err)
	}
	if next.Len() != 0 || next.Epoch() != 1 {
		t.Fatalf("empty rebuild: Len=%d Epoch=%d", next.Len(), next.Epoch())
	}
	if err := next.Insert(tab.Row(0)); err != nil {
		t.Fatalf("insert into rebuilt empty index: %v", err)
	}
	if index.Count(next, index.Point(tab.Row(0))) != 1 {
		t.Fatal("inserted row not found")
	}
}
