package coax_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/coax-index/coax/coax"
)

// Property: a snapshot serves bit-identical answers no matter how it is
// opened. For every engine shape (single vs sharded, grid vs R-tree
// outliers) and both v3 encodings (raw pages and per-page columnar
// compression), OpenFile over the mapped v3 file must return exactly the
// rows and aggregate values of the heap-decoded v2 load — bitwise, query
// by query — including under concurrent readers (CI runs this under
// -race: readers of a compressed file share only the mapping, each scan
// decoding into scratch of its own).

func TestPropertyMappedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(12000))

	type saved struct {
		v2, v3, v3c string // heap format, v3 raw, v3 compressed
	}
	shapes := map[string]func(t *testing.T, dir string) saved{
		"single/grid": func(t *testing.T, dir string) saved {
			return saveSingle(t, dir, tab, coax.OutlierGrid)
		},
		"single/rtree": func(t *testing.T, dir string) saved {
			return saveSingle(t, dir, tab, coax.OutlierRTree)
		},
		"sharded/grid": func(t *testing.T, dir string) saved {
			opt := coax.DefaultOptions()
			so := coax.DefaultShardOptions()
			so.NumShards = 4
			idx, err := coax.BuildSharded(copyOSM(tab), opt, so)
			if err != nil {
				t.Fatal(err)
			}
			s := saved{
				v2:  filepath.Join(dir, "s.v2"),
				v3:  filepath.Join(dir, "s.v3"),
				v3c: filepath.Join(dir, "s.v3c"),
			}
			if err := coax.SaveShardedFile(s.v2, idx); err != nil {
				t.Fatal(err)
			}
			if err := coax.SaveShardedFileV3(s.v3, idx, false); err != nil {
				t.Fatal(err)
			}
			if err := coax.SaveShardedFileV3(s.v3c, idx, true); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}

	for name, save := range shapes {
		t.Run(name, func(t *testing.T) {
			s := save(t, t.TempDir())
			heap := openSnap(t, s.v2)
			defer heap.Close()
			if heap.Mapped() {
				t.Fatal("v2 snapshot reports mapped")
			}
			queries := make([]coax.Rect, 0, 21)
			for i := 0; i < 20; i++ {
				queries = append(queries, randOSMRect(rng, tab))
			}
			queries = append(queries, coax.FullRect(tab.Dims()))

			for _, path := range []string{s.v3, s.v3c} {
				mapped := openSnap(t, path)
				if mapped.Version() != coax.SnapshotVersionV3 {
					t.Fatalf("%s: version %d", path, mapped.Version())
				}
				for qi, r := range queries {
					requireSameAnswers(t, heap, mapped, r, qi)
				}
				concurrentCompare(t, heap, mapped, queries)
				if err := mapped.PageErr(); err != nil {
					t.Fatalf("%s: page error: %v", path, err)
				}
				if err := mapped.Close(); err != nil {
					t.Fatalf("%s: close: %v", path, err)
				}
			}
		})
	}
}

func saveSingle(t *testing.T, dir string, tab *coax.Table, kind coax.OutlierIndexKind) (s struct{ v2, v3, v3c string }) {
	t.Helper()
	opt := coax.DefaultOptions()
	opt.OutlierKind = kind
	idx, err := coax.Build(copyOSM(tab), opt)
	if err != nil {
		t.Fatal(err)
	}
	s.v2 = filepath.Join(dir, "i.v2")
	s.v3 = filepath.Join(dir, "i.v3")
	s.v3c = filepath.Join(dir, "i.v3c")
	if err := coax.SaveFile(s.v2, idx); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveFileV3(s.v3, idx, false); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveFileV3(s.v3c, idx, true); err != nil {
		t.Fatal(err)
	}
	return s
}

func openSnap(t *testing.T, path string) *coax.Snapshot {
	t.Helper()
	sn, err := coax.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return sn
}

// querierOf returns whichever index shape the snapshot holds.
func querierOf(t *testing.T, sn *coax.Snapshot) coax.Querier {
	t.Helper()
	if idx := sn.Index(); idx != nil {
		return idx
	}
	if sh := sn.Sharded(); sh != nil {
		return sh
	}
	t.Fatal("snapshot holds no index")
	return nil
}

// requireSameAnswers compares rows and every aggregate of one rectangle,
// bitwise.
func requireSameAnswers(t *testing.T, heap, mapped *coax.Snapshot, r coax.Rect, qi int) {
	t.Helper()
	hq, mq := querierOf(t, heap), querierOf(t, mapped)

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
		coax.CountRows(), coax.Sum("lon"), coax.Min("lat"), coax.Max("lon"), coax.Avg("lat"),
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
	hq, mq := querierOf(t, heap), querierOf(t, mapped)
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
