package shard_test

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
)

// Every way the engine changes a shard leaves the shard's WriteRing saying
// whether a rectangle was touched: a write's row images are tested against
// it, and whatever reorders rows makes every earlier capture stale.
func TestTouchedFollowsWrites(t *testing.T) {
	tab := fdTable(rand.New(rand.NewSource(3)), 4000, 0.1)
	build := func(t *testing.T, kind core.OutlierIndexKind) *shard.Sharded {
		opt := coreOptions()
		opt.OutlierKind = kind
		s, err := shard.Build(tab, opt,
			shard.Options{NumShards: 2, Workers: 1, Partition: shard.ByRange, Column: 0})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// x (column 0) routes rows: x < cut on shard 0, the rest on shard 1.
	cut := build(t, core.OutlierGrid).Cuts()[0]
	r := index.Full(4)
	r.Min[0], r.Max[0] = cut/4, cut/2 // inside shard 0's slab
	in := []float64{cut / 3, 2*cut/3 + 50, 10, 0}
	out := []float64{cut / 8, cut/4 + 50, 10, 0}
	far := []float64{cut * 1.5, 3*cut + 50, 10, 0} // on shard 1
	held := tab.Row(0)                             // a built row, outside r
	for i := 0; held[0] >= cut/4 && held[0] <= cut/2; i++ {
		held = tab.Row(i)
	}

	cases := []struct {
		name    string
		kind    core.OutlierIndexKind
		do      func(s *shard.Sharded) error
		touched [2]bool
	}{
		{name: "insert outside", do: func(s *shard.Sharded) error { return s.Insert(out) }},
		{name: "insert inside", do: func(s *shard.Sharded) error { return s.Insert(in) }, touched: [2]bool{true, false}},
		{name: "delete inside", do: func(s *shard.Sharded) error {
			if err := s.Insert(in); err != nil {
				return err
			}
			return s.Delete(in)
		}, touched: [2]bool{true, false}},
		{name: "same-shard update outside", do: func(s *shard.Sharded) error {
			if err := s.Insert(out); err != nil {
				return err
			}
			return s.Update(out, []float64{cut / 9, 50, 1, 1})
		}},
		{name: "same-shard update into r", do: func(s *shard.Sharded) error {
			if err := s.Insert(out); err != nil {
				return err
			}
			return s.Update(out, in)
		}, touched: [2]bool{true, false}},
		{name: "cross-shard update out of r", do: func(s *shard.Sharded) error {
			if err := s.Insert(in); err != nil {
				return err
			}
			return s.Update(in, far)
		}, touched: [2]bool{true, false}},
		{name: "cross-shard update outside", do: func(s *shard.Sharded) error {
			if err := s.Insert(out); err != nil {
				return err
			}
			return s.Update(out, far)
		}},
		{name: "compact", do: func(s *shard.Sharded) error { s.Compact(); return nil }, touched: [2]bool{true, true}},
		{name: "rebuild", do: func(s *shard.Sharded) error { return s.RebuildShard(1) }, touched: [2]bool{false, true}},
		{name: "writes past the ring", do: func(s *shard.Sharded) error {
			for i := 0; i <= shard.WriteRingSize; i++ {
				if err := s.Insert(out); err != nil {
					return err
				}
			}
			return nil
		}, touched: [2]bool{true, false}},
		{name: "insert outside an R-tree outlier index", kind: core.OutlierRTree, do: func(s *shard.Sharded) error { return s.Insert(far) }, touched: [2]bool{false, true}},
		{name: "delete outside an R-tree outlier index", kind: core.OutlierRTree, do: func(s *shard.Sharded) error { return s.Delete(held) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build(t, tc.kind)
			since := [2]uint64{s.ShardVersion(0), s.ShardVersion(1)}
			if err := tc.do(s); err != nil {
				t.Fatal(err)
			}
			for i := range since {
				now, touched := s.Touched(i, since[i], r)
				if touched != tc.touched[i] {
					t.Errorf("shard %d: touched = %v, want %v", i, touched, tc.touched[i])
				}
				if now != s.ShardVersion(i) {
					t.Errorf("shard %d: Touched reports version %d, ShardVersion %d", i, now, s.ShardVersion(i))
				}
				if now, touched := s.Touched(i, now, r); touched || now != s.ShardVersion(i) {
					t.Errorf("shard %d: a capture at the current version reads touched", i)
				}
			}
		})
	}
}
