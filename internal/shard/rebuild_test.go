package shard_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// driftRow produces a row in a shifted linear regime (d = 2x + 5000) that
// the original model (d ≈ 2x + 50) rejects but a fresh detection fits.
func driftRow(rng *rand.Rand) []float64 {
	x := rng.Float64() * 1000
	return []float64{x, 2*x + 5000 + rng.NormFloat64()*4, rng.Float64() * 100, rng.NormFloat64() * 10}
}

func TestShardedMutationsMatchScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tab := fdTable(rng, 6000, 0.05)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 4, Column: -1})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewMixGenerator(tab, 42, workload.MixConfig{
		InsertWeight: 1, DeleteWeight: 1, UpdateWeight: 1, QueryWeight: 2,
		OutlierFrac: 0.15,
	})
	for op := 0; op < 3000; op++ {
		o := mix.Next()
		switch o.Kind {
		case workload.OpInsert:
			err = s.Insert(o.Row)
		case workload.OpDelete:
			err = s.Delete(o.Row)
		case workload.OpUpdate:
			err = s.Update(o.Old, o.New)
		case workload.OpQuery:
			got := index.Count(s, o.Rect)
			want := index.Count(scan.New(mix.LiveView()), o.Rect)
			if got != want {
				t.Fatalf("op %d query: got %d rows, oracle %d", op, got, want)
			}
		}
		if err != nil {
			t.Fatalf("op %d %v: %v", op, o.Kind, err)
		}
		if s.Len() != mix.LiveLen() {
			t.Fatalf("op %d: Len=%d, oracle %d", op, s.Len(), mix.LiveLen())
		}
	}
	// A mid-stream in-place Compact must not change any answer.
	s.Compact()
	oracle := scan.New(mix.LiveView())
	for q := 0; q < 100; q++ {
		r := workload.RandRect(rng, mix.LiveView())
		if got, want := index.Count(s, r), index.Count(oracle, r); got != want {
			t.Fatalf("post-compact query %d: got %d, oracle %d", q, got, want)
		}
	}
}

// TestRebuildShardSwapsEpochTransparently rebuilds every shard of a
// drifted engine and verifies epochs advance, the outlier ratio drops, and
// no query result changes across the swaps.
func TestRebuildShardSwapsEpochTransparently(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tab := fdTable(rng, 8000, 0.02)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	th := lifecycle.DefaultThresholds()

	live := append([]float64(nil), tab.Data...)
	for i := 0; i < 6000; i++ {
		row := driftRow(rng)
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
		live = append(live, row...)
	}
	before := s.LifecycleStats()
	if stale := s.StaleShards(th); len(stale) != s.NumShards() {
		t.Fatalf("only %d/%d shards stale after drift (stats %+v)", len(stale), s.NumShards(), before)
	}

	rebuilt, err := s.RebuildStale(th)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != s.NumShards() {
		t.Fatalf("rebuilt %v, want all %d shards", rebuilt, s.NumShards())
	}
	after := s.LifecycleStats()
	if after.Epoch != uint64(s.NumShards()) {
		t.Fatalf("aggregate epoch %d, want %d", after.Epoch, s.NumShards())
	}
	if after.OutlierRatio > before.OutlierRatio/2 {
		t.Fatalf("rebuild did not heal: outlier ratio %.3f → %.3f", before.OutlierRatio, after.OutlierRatio)
	}
	if stale := s.StaleShards(th); len(stale) != 0 {
		t.Fatalf("shards %v still stale after rebuild", stale)
	}

	// The swaps must be invisible to queries: the engine answers exactly
	// like a full scan over base + drift rows.
	view := dataset.View(tab.Cols, live)
	oracle := scan.New(view)
	for q := 0; q < 150; q++ {
		r := workload.RandRect(rng, view)
		if got, want := index.Count(s, r), index.Count(oracle, r); got != want {
			t.Fatalf("post-swap query %d: got %d, oracle %d", q, got, want)
		}
	}
}

// TestConcurrentMutationsDuringRebuild hammers one shard range with
// mutations and queries while rebuilds run, asserting the delta-log replay
// loses nothing: the final contents equal the mirror.
func TestConcurrentMutationsDuringRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tab := fdTable(rng, 6000, 0.05)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewMixGenerator(tab, 45, workload.MixConfig{
		InsertWeight: 2, DeleteWeight: 1, UpdateWeight: 1, QueryWeight: 0,
		OutlierFrac: 0.3,
	})

	// Sentinel rows parked far outside the mutation space: a concurrent
	// query loop must see exactly one copy of each at every instant,
	// through every epoch swap.
	sentinels := make([][]float64, 16)
	for i := range sentinels {
		sentinels[i] = []float64{-1e6 - float64(i), -1e6, -1e6, -1e6}
		if err := s.Insert(sentinels[i]); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop    atomic.Bool
		wrong   atomic.Int64
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				sent := sentinels[qrng.Intn(len(sentinels))]
				if got := index.Count(s, index.Point(sent)); got != 1 {
					wrong.Add(1)
				}
				queries.Add(1)
			}
		}(int64(100 + w))
	}

	// Mutate and rebuild concurrently: every few hundred ops, force a
	// rebuild of a random shard on a separate goroutine.
	var rebuilds sync.WaitGroup
	for op := 0; op < 4000; op++ {
		o := mix.Next()
		switch o.Kind {
		case workload.OpInsert:
			err = s.Insert(o.Row)
		case workload.OpDelete:
			err = s.Delete(o.Row)
		case workload.OpUpdate:
			err = s.Update(o.Old, o.New)
		}
		if err != nil {
			t.Fatalf("op %d %v: %v", op, o.Kind, err)
		}
		if op%500 == 250 {
			si := rng.Intn(s.NumShards())
			rebuilds.Add(1)
			go func() {
				defer rebuilds.Done()
				if err := s.RebuildShard(si); err != nil && !errors.Is(err, shard.ErrRebuildInProgress) {
					t.Errorf("rebuild shard %d: %v", si, err)
				}
			}()
		}
	}
	rebuilds.Wait()
	stop.Store(true)
	wg.Wait()

	if q := queries.Load(); q == 0 {
		t.Fatal("query loop never ran")
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d incorrect sentinel results during rebuilds (%d queries)", w, queries.Load())
	}

	// Final state: engine contents equal the mirror (plus sentinels).
	want := mix.LiveLen() + len(sentinels)
	if s.Len() != want {
		t.Fatalf("Len=%d, want %d", s.Len(), want)
	}
	full := index.Full(s.Dims())
	if got := index.Count(s, full); got != want {
		t.Fatalf("full scan %d rows, want %d", got, want)
	}
	oracle := scan.New(mix.LiveView())
	for q := 0; q < 100; q++ {
		r := workload.RandRect(rng, mix.LiveView())
		got := index.Count(s, r)
		want := index.Count(oracle, r)
		for _, sent := range sentinels {
			if r.Contains(sent) {
				want++
			}
		}
		if got != want {
			t.Fatalf("final query %d: got %d, oracle %d", q, got, want)
		}
	}
}

func TestRebuildShardValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tab := fdTable(rng, 500, 0.05)
	s, err := shard.Build(tab, coreOptions(), shard.Options{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RebuildShard(-1); err == nil {
		t.Fatal("negative ordinal accepted")
	}
	if err := s.RebuildShard(2); err == nil {
		t.Fatal("out-of-range ordinal accepted")
	}
	if _, err := s.RebuildAll(); err != nil {
		t.Fatalf("RebuildAll: %v", err)
	}
	st := s.ShardLifecycleStats()
	if len(st) != 2 || st[0].Epoch != 1 || st[1].Epoch != 1 {
		t.Fatalf("per-shard stats after RebuildAll: %+v", st)
	}
}
