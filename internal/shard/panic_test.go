package shard

import (
	"errors"
	"testing"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// TestProbePanicReachesCaller: a probe that panics on a fan-out worker
// neither ends the process nor holds its shard's read lock. The fan-out
// waits for its other probes, then raises the panic on the calling
// goroutine naming the shard, and an insert into that shard completes.
func TestProbePanicReachesCaller(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(20_000))
	so := DefaultOptions()
	so.NumShards, so.Workers = 4, 4
	s, err := Build(tab, core.DefaultOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	boom := errors.New("boom")
	f := s.plan([]index.Rect{index.Full(tab.Dims())}, index.Spec{})
	if len(f.probes) != 4 || f.workers < 2 {
		t.Fatalf("%d probes on %d workers, want 4 on at least 2", len(f.probes), f.workers)
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		s.fanOut(f, nil, func(pi int, idx *core.COAX, rep *core.ProbeReport) bool {
			if f.probes[pi].si == bad {
				panic(boom)
			}
			return idx.ExecAgg(index.Full(tab.Dims()), index.Spec{}, index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1}), rep)
		})
	}()
	p, ok := recovered.(*probePanic)
	if !ok || p.shard != bad || p.value != boom {
		t.Fatalf("caller recovered %v, want shard %d's panic %v", recovered, bad, boom)
	}

	var row []float64
	for i := 0; i < tab.Len() && row == nil; i++ {
		if s.routeRow(tab.Row(i)) == bad {
			row = append([]float64(nil), tab.Row(i)...)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Insert(row) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("insert into shard %d still blocked: the panicked probe kept its read lock", bad)
	}
	if n := s.Len(); n != tab.Len()+1 {
		t.Fatalf("index holds %d rows after one insert into %d", n, tab.Len())
	}
}
