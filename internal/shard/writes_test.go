package shard_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
)

// Every way the engine changes a shard leaves the shard's WriteRing saying
// whether a rectangle was touched: a write's row images are tested against
// it, and whatever reorders rows (compaction, rebuild) makes every earlier
// capture stale.
func TestTouchedFollowsWrites(t *testing.T) {
	tab := fdTable(rand.New(rand.NewSource(3)), 4000, 0.1)
	build := func(t *testing.T) *shard.Sharded {
		s, err := shard.Build(tab, coreOptions(),
			shard.Options{NumShards: 2, Workers: 1, Column: 0})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// x (column 0) routes rows: x < cut on shard 0, the rest on shard 1.
	cut := build(t).Cuts()[0]
	r := index.Full(4)
	r.Min[0], r.Max[0] = cut/4, cut/2 // inside shard 0's slab
	in := []float64{cut / 3, 2*cut/3 + 50, 10, 0}
	out := []float64{cut / 8, cut/4 + 50, 10, 0}
	far := []float64{cut * 1.5, 3*cut + 50, 10, 0}     // on shard 1
	outlier := []float64{cut / 8, cut/4 + 1500, 10, 0} // off the x → d model

	cases := []struct {
		name    string
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
		// An insert into the outlier grid records its image like any other:
		// a reset would read touched on shard 0.
		{name: "outlier insert outside", do: func(s *shard.Sharded) error {
			before := s.LifecycleStats().OutlierRows
			if err := s.Insert(outlier); err != nil {
				return err
			}
			if got := s.LifecycleStats().OutlierRows; got != before+1 {
				return fmt.Errorf("%d outlier rows after the insert, want %d", got, before+1)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build(t)
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
