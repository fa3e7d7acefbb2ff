package mmapsnap

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
)

// fuzzSeedTable is a small correlated table whose snapshots exercise every
// v3 section kind: soft-FD models, a primary grid, and an outlier index.
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

// FuzzMmapSnapDecode drives the v3 open path with arbitrary bytes.
// Truncated, corrupted, or misaligned inputs must produce typed errors —
// never a panic, an over-read past the blob, or an index that panics when
// queried. Seeds cover both container shapes × compressed/plain, a
// mutated index, and the committed file whose outliers are a read-only
// R-tree section, plus truncations and bit-flips, so the fuzzer starts
// inside the format rather than fighting the magic number.
//
// The seeds are whole files of 6 to 26 kB, and the fuzzer minimizes every
// input that finds new coverage for up to -fuzzminimizetime (60 s by
// default) with passes quadratic in its length, during which it reports no
// executions: run it with a small bound, as CI does
// (-fuzzminimizetime 100x), or it spends its time minimizing.
func FuzzMmapSnapDecode(f *testing.F) {
	tab := fuzzSeedTable()
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 400

	var seeds [][]byte
	idx, err := core.Build(tab, opt)
	if err != nil {
		f.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		blob, err := EncodeIndex(idx, Options{Compress: compress})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	sharded, err := shard.Build(tab, opt, shard.Options{NumShards: 3, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodeSharded(sharded, Options{Compress: true})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, blob)
	if blob, err = EncodeIndex(perValueSeed(f, opt), Options{Compress: true}); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, blob)
	if blob, err = os.ReadFile(filepath.Join("..", "snapshot", "testdata", "osm-rtree.v3")); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, blob)
	// The first index after deletes and outlier inserts: tombstones in both
	// grids and overflow pages in the outlier grid.
	for i := 0; i < tab.Len(); i += 7 {
		if err := idx.Delete(tab.Row(i)); err != nil {
			f.Fatal(err)
		}
	}
	for i := range 20 {
		if err := idx.Insert([]float64{float64(i), 1000 + float64(i), 5}); err != nil {
			f.Fatal(err)
		}
	}
	if blob, err = EncodeIndex(idx, Options{}); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, blob)

	for _, blob := range seeds {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
		for _, at := range []int{len(blob) / 3, len(blob) / 2, len(blob) - 9} {
			mut := append([]byte(nil), blob...)
			mut[at] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("COAXSNAP"))
	f.Add([]byte("COAXSNAP\x03\x00\x00\x00"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sound := Verify(data) == nil
		sn, err := OpenBytes(data)
		if err == nil {
			idx := sn.Index()
			exerciseQueries(idx)
			// A page error surfaced by a read is fine on a damaged file; a
			// panic above is not. A file that verifies answers a windowed
			// query — the span read — exactly as the full scan, filtered.
			if sound && sn.PageErr() == nil {
				windowedMatchesFull(t, idx)
			}
		}
		Inspect(data)
		PeekVersion(data)
	})
}

// windowedMatchesFull queries a window on each dimension in turn, bounded
// by two values the index holds, and requires the rows of the unbounded
// scan that fall inside it, no more and no fewer.
func windowedMatchesFull(t *testing.T, idx index.Interface) {
	dims := idx.Dims()
	all := index.Collect(idx, index.Full(dims))
	if len(all) == 0 {
		return
	}
	for d := 0; d < dims; d++ {
		r := index.Full(dims)
		r.Min[d], r.Max[d] = all[len(all)/3][d], all[2*len(all)/3][d]
		if r.Min[d] > r.Max[d] {
			r.Min[d], r.Max[d] = r.Max[d], r.Min[d]
		}
		want := 0
		for _, row := range all {
			if r.Contains(row) {
				want++
			}
		}
		if got := index.Count(idx, r); got != want {
			t.Fatalf("window [%v,%v] on dimension %d: %d rows, the full scan holds %d", r.Min[d], r.Max[d], d, got, want)
		}
	}
}

// exerciseQueries runs the probe paths of an opened index; an open that
// validated must answer (possibly with rows elided by a latched page
// error) without panicking.
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
