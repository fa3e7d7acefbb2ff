package benchmarks

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// mutableIndex is the mutation surface shared by *core.COAX and
// *shard.Sharded that the interleaving property exercises.
type mutableIndex interface {
	index.Interface
	Insert(row []float64) error
	Delete(row []float64) error
	Update(old, new []float64) error
}

// driftTable plants one strong soft FD (col1 ≈ 2·col0 + 50) with a small
// outlier fraction — the same shape the per-package tests use.
func driftTable(rng *rand.Rand, n int) *dataset.Table {
	t := dataset.NewTable([]string{"x", "d", "u", "v"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		var d float64
		if rng.Float64() < 0.03 {
			d = rng.Float64() * 2100
		} else {
			d = 2*x + 50 + rng.NormFloat64()*4
		}
		t.Append([]float64{x, d, rng.Float64() * 100, rng.NormFloat64() * 10})
	}
	return t
}

func lifecycleOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 4000
	return opt
}

// TestMutationInterleavingsAgainstOracle is the cross-configuration
// interleaving property: random Insert/Delete/Update/Query streams run
// against the single and sharded engines, and every query must match a
// full scan of the generator's live multiset exactly — including across
// in-place compactions and full epoch rebuilds.
func TestMutationInterleavingsAgainstOracle(t *testing.T) {
	configs := []struct {
		name    string
		sharded bool
	}{
		{"single/grid-outliers", false},
		{"sharded/grid-outliers", true},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(61))
			tab := driftTable(rng, 5000)
			opt := lifecycleOptions()

			var idx mutableIndex
			var err error
			var sh *shard.Sharded
			if cfg.sharded {
				sh, err = shard.Build(tab, opt, shard.Options{NumShards: 3})
				idx = sh
			} else {
				var c *core.COAX
				c, err = core.Build(tab, opt)
				idx = c
			}
			if err != nil {
				t.Fatal(err)
			}

			mix := workload.NewMixGenerator(tab, 62, workload.MixConfig{
				InsertWeight: 2, DeleteWeight: 1.5, UpdateWeight: 1, QueryWeight: 3,
				OutlierFrac: 0.25, PerturbCols: []int{1},
			})
			for op := 0; op < 3000; op++ {
				o := mix.Next()
				switch o.Kind {
				case workload.OpInsert:
					err = idx.Insert(o.Row)
				case workload.OpDelete:
					err = idx.Delete(o.Row)
				case workload.OpUpdate:
					err = idx.Update(o.Old, o.New)
				case workload.OpQuery:
					got := index.Count(idx, o.Rect)
					want := index.Count(scan.New(mix.LiveView()), o.Rect)
					if got != want {
						t.Fatalf("op %d query: engine %d rows, oracle %d", op, got, want)
					}
				}
				if err != nil {
					t.Fatalf("op %d %v: %v", op, o.Kind, err)
				}
				switch op {
				case 1000:
					// In-place maintenance must be invisible.
					if cfg.sharded {
						sh.Compact()
					} else {
						idx.(*core.COAX).Compact()
					}
				case 2000:
					// A full epoch rebuild must be invisible too.
					if cfg.sharded {
						if _, err := sh.RebuildAll(); err != nil {
							t.Fatalf("op %d rebuild: %v", op, err)
						}
					} else {
						next, err := idx.(*core.COAX).Rebuild()
						if err != nil {
							t.Fatalf("op %d rebuild: %v", op, err)
						}
						idx = next
					}
				}
				if idx.Len() != mix.LiveLen() {
					t.Fatalf("op %d: Len=%d, oracle %d", op, idx.Len(), mix.LiveLen())
				}
			}
		})
	}
}

// TestCompactorHealsDriftUnderConcurrentQueries is the acceptance
// scenario: a drift-inducing write workload pushes the outlier ratio past
// threshold, the background compactor restores it below threshold, and a
// concurrent query loop observes zero incorrect results throughout.
func TestCompactorHealsDriftUnderConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	tab := driftTable(rng, 10000)
	s, err := shard.Build(tab, lifecycleOptions(), shard.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	th := lifecycle.DefaultThresholds()

	// Sentinels far outside the mutation space: every point query must see
	// exactly one copy, at every instant, through every epoch swap.
	sentinels := make([][]float64, 24)
	for i := range sentinels {
		sentinels[i] = []float64{-5e6 - float64(i)*10, -5e6, -5e6, -5e6}
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
	for w := 0; w < 3; w++ {
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
		}(int64(70 + w))
	}

	// Drift: model-violating inserts in a shifted-but-clean regime, so the
	// rebuilt models can absorb them and the ratio genuinely heals.
	for i := 0; i < 8000; i++ {
		x := rng.Float64() * 1000
		row := []float64{x, 2*x + 5000 + rng.NormFloat64()*4, rng.Float64() * 100, rng.NormFloat64() * 10}
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	drifted := s.LifecycleStats().OutlierRatio
	if drifted <= th.MaxOutlierRatio {
		t.Fatalf("drift workload only reached outlier ratio %.3f (threshold %.3f)", drifted, th.MaxOutlierRatio)
	}

	// Only now start the compactor, so the drift measurement above cannot
	// race a rebuild; the query goroutines have been running all along and
	// keep running through every swap it triggers.
	compactor := lifecycle.NewCompactor(s, th, 20*time.Millisecond)
	if err := compactor.Start(); err != nil {
		t.Fatal(err)
	}
	defer compactor.Stop()

	// The compactor must bring the ratio back under threshold on its own.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ratio := s.LifecycleStats().OutlierRatio; ratio <= th.MaxOutlierRatio {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor did not heal drift: ratio still %.3f after 30s (last sweep %+v)",
				s.LifecycleStats().OutlierRatio, compactor.Last())
		}
		time.Sleep(10 * time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("query loop never ran")
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d incorrect results out of %d concurrent queries during self-healing", w, queries.Load())
	}
	if s.LifecycleStats().Epoch == 0 {
		t.Fatal("no shard was actually rebuilt")
	}
	// Every sentinel survived every swap.
	for i, sent := range sentinels {
		if got := index.Count(s, index.Point(sent)); got != 1 {
			t.Fatalf("sentinel %d: %d copies after healing", i, got)
		}
	}
}
