package coax_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/shard"
)

// Property: a snapshot serves bit-identical answers no matter how it is
// stored. For a 4-shard index (grid outliers), OpenFile over the mapped v3
// file — raw pages and per-page columnar compression — must return exactly
// the rows and aggregate values of the in-memory index that was saved,
// bitwise, query by query, including under concurrent readers (CI runs this
// under -race: readers of a compressed file share only the mapping, each
// scan decoding into scratch of its own). A file of the single-index layout
// earlier releases wrote opens as a one-shard Index held to the same
// property.

func TestPropertyMappedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(12000))
	queries := make([]coax.Rect, 0, 27)
	for i := 0; i < 20; i++ {
		queries = append(queries, randOSMRect(rng, tab))
	}
	queries = append(queries, coax.FullRect(tab.Dims()))
	// Rectangles that leave the aggregated and grouped columns open: on a
	// compressed file no kernel tests them, so only the folds pull them.
	for i := 0; i < 6; i++ {
		r := queries[i].Clone()
		r.Max[3], r.Min[3] = math.Inf(1), math.Inf(-1)
		if i%2 == 0 {
			r.Max[2], r.Min[2] = math.Inf(1), math.Inf(-1)
		}
		queries = append(queries, r)
	}

	// A shape builds one index, saves it to dir raw and compressed, and
	// returns the built index every file is compared with.
	type saved struct {
		built  *coax.Index
		files  []string
		shards int
	}
	saveSharded := func(t *testing.T, dir, name string, idx *coax.Index) saved {
		s := saved{idx, []string{filepath.Join(dir, name+".v3"), filepath.Join(dir, name+".v3c")}, idx.NumShards()}
		for i, path := range s.files {
			if err := coax.SaveShardedFileV3(path, idx, i == 1); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	shapes := map[string]func(t *testing.T, dir string) saved{
		"sharded/grid": func(t *testing.T, dir string) saved {
			return saveSharded(t, dir, "s", build(t, copyOSM(tab), coax.DefaultOptions(), 4))
		},
		// Latitude and longitude rounded to whole degrees hold 10 and 15
		// values, so the primary cuts each into one cell per value: a grid
		// whose axes are below CellsPerDim and differ from each other.
		"sharded/per-value axes": func(t *testing.T, dir string) saved {
			coarse := copyOSM(tab)
			for i := 0; i < coarse.Len(); i++ {
				row := coarse.Row(i)
				row[2], row[3] = math.Round(row[2]), math.Round(row[3])
			}
			idx := build(t, coarse, coax.DefaultOptions(), 4)
			if cells := idx.BuildStats().PrimaryAxisCells; len(cells) != 2 || cells[0] > 10 || cells[1] > 15 || cells[0] == cells[1] {
				t.Fatalf("primary cells per axis %v, want one per whole degree of latitude and longitude", cells)
			}
			return saveSharded(t, dir, "p", idx)
		},
		"single-layout": func(t *testing.T, dir string) saved {
			c, err := core.Build(copyOSM(tab), coax.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			built, err := shard.Reassemble([]*core.COAX{c}, shard.ByHash, -1, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := saved{built: built, shards: 1}
			for name, compress := range map[string]bool{"i.v3": false, "i.v3c": true} {
				blob, err := mmapsnap.EncodeIndex(c, mmapsnap.Options{Compress: compress})
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				s.files = append(s.files, path)
			}
			return s
		},
	}

	for name, save := range shapes {
		t.Run(name, func(t *testing.T) {
			s := save(t, t.TempDir())
			for _, path := range s.files {
				sn := openSnap(t, path)
				opened := serving(t, sn)
				if n := opened.NumShards(); n != s.shards {
					t.Fatalf("%s: opened %d shards, want %d", path, n, s.shards)
				}
				for qi, r := range queries {
					requireSameAnswers(t, s.built, opened, r, qi)
				}
				concurrentCompare(t, s.built, opened, queries)
				if err := sn.PageErr(); err != nil {
					t.Fatalf("%s: page error: %v", path, err)
				}
				if err := sn.Close(); err != nil {
					t.Fatalf("%s: close: %v", path, err)
				}
			}
		})
	}
}

func openSnap(t *testing.T, path string) *coax.Snapshot {
	t.Helper()
	sn, err := coax.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return sn
}

// serving is the index sn opened.
func serving(t *testing.T, sn *coax.Snapshot) *coax.Index {
	t.Helper()
	idx, err := sn.Serving(0)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// requireSameAnswers compares rows, the first 0, 1 and 100 of them in
// order, and every aggregate of one rectangle, ungrouped and grouped,
// bitwise. Aggregates name columns by position.
func requireSameAnswers(t *testing.T, built, opened *coax.Index, r coax.Rect, qi int) {
	t.Helper()
	br, err := coax.FromRect(r).Collect(built)
	if err != nil {
		t.Fatalf("query %d: built collect: %v", qi, err)
	}
	or, err := coax.FromRect(r).Collect(opened)
	if err != nil {
		t.Fatalf("query %d: opened collect: %v", qi, err)
	}
	if len(br) != len(or) {
		t.Fatalf("query %d: %d rows built, %d opened", qi, len(br), len(or))
	}
	sortRowsBits(br)
	sortRowsBits(or)
	for i := range br {
		for k := range br[i] {
			if math.Float64bits(br[i][k]) != math.Float64bits(or[i][k]) {
				t.Fatalf("query %d row %d col %d: %v built, %v opened (bit-level)", qi, i, k, br[i][k], or[i][k])
			}
		}
	}

	for _, k := range []int{0, 1, 100} {
		bh, err := coax.FromRect(r).Head(built, k)
		if err != nil {
			t.Fatalf("query %d: built head: %v", qi, err)
		}
		oh, err := coax.FromRect(r).Head(opened, k)
		if err != nil {
			t.Fatalf("query %d: opened head: %v", qi, err)
		}
		if bh.Count != oh.Count || len(bh.Rows) != len(oh.Rows) {
			t.Fatalf("query %d: head %d: %d of %d rows built, %d of %d opened", qi, k, len(bh.Rows), bh.Count, len(oh.Rows), oh.Count)
		}
		for i := range bh.Rows {
			for c := range bh.Rows[i] {
				if math.Float64bits(bh.Rows[i][c]) != math.Float64bits(oh.Rows[i][c]) {
					t.Fatalf("query %d: head %d row %d: %v built, %v opened", qi, k, i, bh.Rows[i], oh.Rows[i])
				}
			}
		}
	}

	for _, agg := range []coax.Aggregation{
		coax.CountRows(), coax.SumDim(3), coax.MinDim(2), coax.MaxDim(3), coax.AvgDim(2),
	} {
		for _, group := range []int{-1, 2} {
			q := func() *coax.Query {
				if group < 0 {
					return coax.FromRect(r)
				}
				return coax.FromRect(r).GroupByDim(group)
			}
			ba, err := q().Aggregate(built, agg)
			if err != nil {
				t.Fatalf("query %d: built aggregate: %v", qi, err)
			}
			oa, err := q().Aggregate(opened, agg)
			if err != nil {
				t.Fatalf("query %d: opened aggregate: %v", qi, err)
			}
			same := ba.Count == oa.Count && ba.Valid == oa.Valid &&
				math.Float64bits(ba.Value) == math.Float64bits(oa.Value) && len(ba.Groups) == len(oa.Groups)
			for i := 0; same && i < len(ba.Groups); i++ {
				bg, og := ba.Groups[i], oa.Groups[i]
				same = bg.Key == og.Key && bg.Count == og.Count && math.Float64bits(bg.Value) == math.Float64bits(og.Value)
			}
			if !same {
				t.Fatalf("query %d group %d: aggregate built %+v, opened %+v", qi, group, ba, oa)
			}
		}
	}
}

// concurrentCompare runs the whole query set from several goroutines at
// once against the opened snapshot, checking counts against the built
// index — the race detector watches the per-read page decode underneath.
func concurrentCompare(t *testing.T, built, opened *coax.Index, queries []coax.Rect) {
	t.Helper()
	want := make([]int, len(queries))
	for i, r := range queries {
		want[i] = count(t, built, r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range queries {
				n, err := coax.FromRect(r).Count(opened)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if n != want[i] {
					t.Errorf("query %d: count %d, want %d", i, n, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func sortRowsBits(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if ab, bb := math.Float64bits(a[k]), math.Float64bits(b[k]); ab != bb {
				return ab < bb
			}
		}
		return false
	})
}
