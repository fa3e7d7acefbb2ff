package coax_test

import (
	"path/filepath"
	"sort"
	"testing"

	"github.com/coax-index/coax/coax"
)

func buildShardedOSM(t *testing.T, rows, shards int) (*coax.Table, *coax.Index) {
	t.Helper()
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(rows))
	return tab, build(t, tab, coax.DefaultOptions(), shards)
}

// sortedCollect is every row of idx inside r, in ascending order.
func sortedCollect(t testing.TB, idx *coax.Index, r coax.Rect) [][]float64 {
	t.Helper()
	rows, err := coax.FromRect(r).Collect(idx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return rows
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

func TestBuildShardedMatchesBuild(t *testing.T) {
	tab, sharded := buildShardedOSM(t, 20000, 4)
	single, err := coax.NewBuilder(coax.TableSchema(tab), coax.DefaultOptions()).Build(coax.NewTableSource(tab, 0))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	queries := []coax.Rect{coax.FullRect(tab.Dims()), coax.PointQuery(tab.Row(17))}
	for i := 0; i < 20; i++ {
		q := coax.FullRect(tab.Dims())
		lo := tab.Row(i * 31 % tab.Len())
		hi := tab.Row(i * 57 % tab.Len())
		for d := 0; d < tab.Dims(); d++ {
			a, b := lo[d], hi[d]
			if a > b {
				a, b = b, a
			}
			q.Min[d], q.Max[d] = a, b
		}
		queries = append(queries, q)
	}
	for qi, q := range queries {
		if !equalRows(sortedCollect(t, single, q), sortedCollect(t, sharded, q)) {
			t.Fatalf("query %d: the 4-shard and one-shard indexes differ", qi)
		}
	}

	// BatchQuery covers the same queries in one fan-out.
	counts := make([]int, len(queries))
	sharded.BatchQuery(queries, func(qi int, _ []float64) { counts[qi]++ })
	for qi, q := range queries {
		if want := count(t, single, q); counts[qi] != want {
			t.Fatalf("batch query %d: count %d, want %d", qi, counts[qi], want)
		}
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	tab, idx := buildShardedOSM(t, 10000, 3)
	full := coax.FullRect(tab.Dims())

	for _, compress := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "sharded.coax")
		if err := coax.SaveShardedFileV3(path, idx, compress); err != nil {
			t.Fatalf("SaveShardedFileV3: %v", err)
		}
		sn := openSnap(t, path)
		loaded := serving(t, sn)
		if w, g := count(t, idx, full), count(t, loaded, full); w != g || loaded.NumShards() != 3 {
			t.Fatalf("compress=%v: loaded %d shards counting %d, want 3 counting %d", compress, loaded.NumShards(), g, w)
		}
		sn.Close()
	}
}

func TestShardedInsertServesConcurrently(t *testing.T) {
	tab, idx := buildShardedOSM(t, 5000, 4)
	row := make([]float64, tab.Dims())
	copy(row, tab.Row(0))
	before := count(t, idx, coax.FullRect(tab.Dims()))
	if err := idx.Insert(row); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := count(t, idx, coax.FullRect(tab.Dims())); got != before+1 {
		t.Fatalf("count after insert = %d, want %d", got, before+1)
	}
}
