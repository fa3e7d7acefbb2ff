package coax_test

import (
	"bytes"
	"encoding/binary"
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
	"github.com/coax-index/coax/internal/snapshot"
)

// Property: a snapshot serves bit-identical answers no matter how it is
// opened. For a 4-shard index (grid outliers), OpenFile over the mapped v3
// file — raw pages and per-page columnar compression — must return exactly
// the rows and aggregate values of the heap-decoded v2 load, bitwise, query
// by query, including under concurrent readers (CI runs this under -race:
// readers of a compressed file share only the mapping, each scan decoding
// into scratch of its own). Files of the single-index layout earlier
// releases wrote — v1, v2 and v3, R-tree outliers — open as a one-shard
// Index held to the same property.

func TestPropertyMappedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(12000))
	queries := make([]coax.Rect, 0, 21)
	for i := 0; i < 20; i++ {
		queries = append(queries, randOSMRect(rng, tab))
	}
	queries = append(queries, coax.FullRect(tab.Dims()))

	// A shape saves one index to dir as the heap file every other file is
	// compared with, and reports the shards it was built with.
	type saved struct {
		heap   string
		others []string
		shards int
	}
	shapes := map[string]func(t *testing.T, dir string) saved{
		"sharded/grid": func(t *testing.T, dir string) saved {
			idx := build(t, copyOSM(tab), coax.DefaultOptions(), 4)
			s := saved{filepath.Join(dir, "s.v2"), []string{filepath.Join(dir, "s.v3"), filepath.Join(dir, "s.v3c")}, 4}
			if err := coax.SaveShardedFile(s.heap, idx); err != nil {
				t.Fatal(err)
			}
			for i, path := range s.others {
				if err := coax.SaveShardedFileV3(path, idx, i == 1); err != nil {
					t.Fatal(err)
				}
			}
			return s
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
			s := saved{filepath.Join(dir, "p.v2"), []string{filepath.Join(dir, "p.v3"), filepath.Join(dir, "p.v3c")}, 4}
			if err := coax.SaveShardedFile(s.heap, idx); err != nil {
				t.Fatal(err)
			}
			for i, path := range s.others {
				if err := coax.SaveShardedFileV3(path, idx, i == 1); err != nil {
					t.Fatal(err)
				}
			}
			return s
		},
		"single-layout": func(t *testing.T, dir string) saved {
			opt := coax.DefaultOptions()
			opt.OutlierKind = coax.OutlierRTree
			c, err := core.Build(copyOSM(tab), opt)
			if err != nil {
				t.Fatal(err)
			}
			var v2 bytes.Buffer
			if err := snapshot.Encode(&v2, c); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{"i.v2": v2.Bytes(), "i.v1": asV1(t, v2.Bytes())}
			for name, compress := range map[string]bool{"i.v3": false, "i.v3c": true} {
				if files[name], err = mmapsnap.EncodeIndex(c, mmapsnap.Options{Compress: compress}); err != nil {
					t.Fatal(err)
				}
			}
			s := saved{heap: filepath.Join(dir, "i.v2"), shards: 1}
			for name, blob := range files {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				if path != s.heap {
					s.others = append(s.others, path)
				}
			}
			return s
		},
	}

	for name, save := range shapes {
		t.Run(name, func(t *testing.T) {
			s := save(t, t.TempDir())
			heap := openSnap(t, s.heap)
			defer heap.Close()
			if heap.Mapped() {
				t.Fatal("v2 snapshot reports mapped")
			}
			for _, path := range s.others {
				other := openSnap(t, path)
				if n := serving(t, other).NumShards(); n != s.shards {
					t.Fatalf("%s: opened %d shards, want %d", path, n, s.shards)
				}
				for qi, r := range queries {
					requireSameAnswers(t, heap, other, r, qi)
				}
				concurrentCompare(t, heap, other, queries)
				if err := other.PageErr(); err != nil {
					t.Fatalf("%s: page error: %v", path, err)
				}
				if err := other.Close(); err != nil {
					t.Fatalf("%s: close: %v", path, err)
				}
			}
		})
	}
}

// asV1 rewrites a v2 single-index snapshot as format v1: the same file
// without the sections that postdate v1 ("life", and the trailing "cols"),
// its header patched to version 1 and the remaining section count.
func asV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	info, err := snapshot.Inspect(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	v1, sections := append([]byte(nil), v2...), info.Sections
	for n := len(sections); n > 0 && (sections[n-1].ID == "life" || sections[n-1].ID == "cols"); n-- {
		v1 = v1[:len(v1)-(4+8+int(sections[n-1].Len)+4)] // id, length, payload, CRC
		sections = sections[:n-1]
	}
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint32(v1[12:], uint32(len(sections)))
	return v1
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

// requireSameAnswers compares rows and every aggregate of one rectangle,
// bitwise. Aggregates name columns by position: a v1 file has no names.
func requireSameAnswers(t *testing.T, heap, mapped *coax.Snapshot, r coax.Rect, qi int) {
	t.Helper()
	hq, mq := serving(t, heap), serving(t, mapped)

	hr, err := coax.FromRect(r).Collect(hq)
	if err != nil {
		t.Fatalf("query %d: heap collect: %v", qi, err)
	}
	mr, err := coax.FromRect(r).Collect(mq)
	if err != nil {
		t.Fatalf("query %d: mapped collect: %v", qi, err)
	}
	if len(hr) != len(mr) {
		t.Fatalf("query %d: %d rows heap, %d mapped", qi, len(hr), len(mr))
	}
	sortRowsBits(hr)
	sortRowsBits(mr)
	for i := range hr {
		for k := range hr[i] {
			if math.Float64bits(hr[i][k]) != math.Float64bits(mr[i][k]) {
				t.Fatalf("query %d row %d col %d: %v heap, %v mapped (bit-level)", qi, i, k, hr[i][k], mr[i][k])
			}
		}
	}

	for _, agg := range []coax.Aggregation{
		coax.CountRows(), coax.SumDim(3), coax.MinDim(2), coax.MaxDim(3), coax.AvgDim(2),
	} {
		ha, err := coax.FromRect(r).Aggregate(hq, agg)
		if err != nil {
			t.Fatalf("query %d: heap aggregate: %v", qi, err)
		}
		ma, err := coax.FromRect(r).Aggregate(mq, agg)
		if err != nil {
			t.Fatalf("query %d: mapped aggregate: %v", qi, err)
		}
		if ha.Count != ma.Count || ha.Valid != ma.Valid ||
			math.Float64bits(ha.Value) != math.Float64bits(ma.Value) {
			t.Fatalf("query %d: aggregate heap %+v, mapped %+v", qi, ha, ma)
		}
	}
}

// concurrentCompare runs the whole query set from several goroutines at
// once against the mapped snapshot, checking counts against the heap
// baseline — the race detector watches the per-read page decode underneath.
func concurrentCompare(t *testing.T, heap, mapped *coax.Snapshot, queries []coax.Rect) {
	t.Helper()
	hq, mq := serving(t, heap), serving(t, mapped)
	want := make([]int, len(queries))
	for i, r := range queries {
		n, err := coax.FromRect(r).Count(hq)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range queries {
				n, err := coax.FromRect(r).Count(mq)
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
