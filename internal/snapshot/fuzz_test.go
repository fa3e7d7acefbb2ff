package snapshot_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/snapshot"
)

// fuzzSeedTable is a small correlated table whose snapshots exercise every
// section kind: soft-FD models, a primary grid, and an outlier index.
func fuzzSeedTable() *dataset.Table {
	rng := rand.New(rand.NewSource(99))
	t := dataset.NewTable([]string{"x", "d", "u"})
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 100
		d := 3*x + 7 + rng.NormFloat64()
		if rng.Float64() < 0.2 {
			d = rng.Float64() * 400
		}
		t.Append([]float64{x, d, rng.Float64() * 10})
	}
	return t
}

// perValueSeedTable adds to fuzzSeedTable's shape a column of five values,
// which the primary grid cuts into one cell per value beside a continuous
// column at the full resolution: a grid whose axes differ in cell count.
func perValueSeedTable() *dataset.Table {
	rng := rand.New(rand.NewSource(98))
	t := dataset.NewTable([]string{"x", "d", "u", "k"})
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 100
		d := 3*x + 7 + rng.NormFloat64()
		if rng.Float64() < 0.2 {
			d = rng.Float64() * 400
		}
		t.Append([]float64{x, d, rng.Float64() * 10, float64(rng.Intn(5))})
	}
	return t
}

// perValueSeed builds the index over perValueSeedTable and proves its
// primary grid has axes of different cell counts.
func perValueSeed(f *testing.F, opt core.Options) *core.COAX {
	idx, err := core.Build(perValueSeedTable(), opt)
	if err != nil {
		f.Fatal(err)
	}
	if cells := idx.BuildStats().PrimaryAxisCells; !slices.Contains(cells, 5) || !slices.Contains(cells, opt.PrimaryCellsPerDim) {
		f.Fatalf("per-value seed: primary cells per axis %v, want a 5 beside a %d", cells, opt.PrimaryCellsPerDim)
	}
	return idx
}

// FuzzSnapshotDecode drives every snapshot entry point with arbitrary
// bytes. Decoders must return errors for anything malformed — never panic,
// hang, or produce an index that panics when queried. Seeds cover all
// container shapes (single index with grid and R-tree outliers, sharded,
// standalone table) plus truncated and bit-flipped variants, so the fuzzer
// starts inside the format rather than fighting the magic number.
func FuzzSnapshotDecode(f *testing.F) {
	tab := fuzzSeedTable()
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 400

	var seeds [][]byte
	for _, kind := range []core.OutlierIndexKind{core.OutlierGrid, core.OutlierRTree} {
		o := opt
		o.OutlierKind = kind
		idx, err := core.Build(tab, o)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snapshot.Encode(&buf, idx); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	sharded, err := shard.Build(tab, opt, shard.Options{NumShards: 3, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var shardBuf bytes.Buffer
	if err := snapshot.EncodeSharded(&shardBuf, sharded); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, shardBuf.Bytes())
	var tabBuf bytes.Buffer
	if err := snapshot.EncodeTable(&tabBuf, tab); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, tabBuf.Bytes())
	var perValueBuf bytes.Buffer
	if err := snapshot.Encode(&perValueBuf, perValueSeed(f, opt)); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, perValueBuf.Bytes())

	for _, blob := range seeds {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("COAXSNAP"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := snapshot.Decode(bytes.NewReader(data)); err == nil {
			exerciseQueries(idx)
		}
		if s, err := snapshot.DecodeSharded(bytes.NewReader(data)); err == nil {
			exerciseQueries(s)
		}
		if tab, err := snapshot.DecodeTable(bytes.NewReader(data)); err == nil {
			_ = tab.Validate()
		}
		snapshot.Inspect(bytes.NewReader(data))
	})
}

// exerciseQueries runs the probe paths of a decoded index; a decode that
// validated must answer without panicking.
func exerciseQueries(idx index.Interface) {
	dims := idx.Dims()
	index.Count(idx, index.Full(dims))
	r := index.Full(dims)
	for d := 0; d < dims; d++ {
		r.Min[d], r.Max[d] = -1, 1
	}
	index.Count(idx, r)
	index.Count(idx, index.Point(make([]float64, dims)))
}
