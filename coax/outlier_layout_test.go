package coax_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/coax-index/coax/coax"
)

// The outlier grid's layout is chosen at build time by a cost model. Two
// properties keep that choice safe to persist: it is a pure function of the
// table (replicas and a rebuild of the same data write the same bytes), and
// files written with the old all-column layout — the OutlierCellsPerDim
// override still writes it — open and answer like a fresh build.

func TestOutlierLayoutDeterministicV3(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(40_000))
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		idx := build(t, tab, coax.DefaultOptions(), 2)
		path := filepath.Join(dir, "a.v3")
		if err := coax.SaveShardedFileV3(path, idx, true); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two builds of one table wrote different v3 files (%d and %d bytes)", len(files[0]), len(files[1]))
	}
}

func TestOldOutlierLayoutFilesOpen(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(30_000))
	fresh := build(t, tab, coax.DefaultOptions(), 2)
	if st := fresh.BuildStats(); st.OutlierCells == 0 || st.OutlierSortDim < 0 || len(st.OutlierGridDims) >= tab.Dims() {
		t.Fatalf("fresh build: outlier layout %d cells on %v sorted on %d, want a sorted grid on fewer than %d columns",
			st.OutlierCells, st.OutlierGridDims, st.OutlierSortDim, tab.Dims())
	}
	old := coax.DefaultOptions()
	old.OutlierCellsPerDim = 3
	oldIdx := build(t, tab, old, 2)

	dir := t.TempDir()
	v2, v3 := filepath.Join(dir, "old.v2"), filepath.Join(dir, "old.v3")
	if err := coax.SaveShardedFile(v2, oldIdx); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFileV3(v3, oldIdx, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	queries := []coax.Rect{coax.FullRect(tab.Dims())}
	for range 30 {
		queries = append(queries, randOSMRect(rng, tab))
	}
	for _, path := range []string{v2, v3} {
		sn := openSnap(t, path)
		idx := serving(t, sn)
		st := idx.BuildStats()
		if st.OutlierSortDim != -1 || len(st.OutlierGridDims) != tab.Dims() || st.OutlierCells != 2*6561 {
			t.Fatalf("%s: outlier layout %d cells on %v sorted on %d, want the all-column 3⁸ lattice per shard",
				path, st.OutlierCells, st.OutlierGridDims, st.OutlierSortDim)
		}
		for qi, r := range queries {
			requireSameResult(t, fresh, idx, r, qi)
		}
		if err := sn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameResult holds got to want's answer on r: the same rows bit for
// bit and the same count, minimum and maximum; a sum may differ in its last
// bits, because the two layouts add the outliers in different orders.
func requireSameResult(t *testing.T, want, got *coax.Index, r coax.Rect, qi int) {
	t.Helper()
	wr, err := coax.FromRect(r).Collect(want)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := coax.FromRect(r).Collect(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr) != len(gr) {
		t.Fatalf("query %d: %d rows, want %d", qi, len(gr), len(wr))
	}
	sortRowsBits(wr)
	sortRowsBits(gr)
	for i := range wr {
		for k := range wr[i] {
			if math.Float64bits(wr[i][k]) != math.Float64bits(gr[i][k]) {
				t.Fatalf("query %d row %d col %d: %v, want %v", qi, i, k, gr[i][k], wr[i][k])
			}
		}
	}
	for _, agg := range []coax.Aggregation{coax.CountRows(), coax.MinDim(2), coax.MaxDim(3), coax.SumDim(0)} {
		wa, err := coax.FromRect(r).Aggregate(want, agg)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := coax.FromRect(r).Aggregate(got, agg)
		if err != nil {
			t.Fatal(err)
		}
		if wa.Count != ga.Count || wa.Valid != ga.Valid || math.Abs(wa.Value-ga.Value) > 1e-9*math.Max(math.Abs(wa.Value), 1) {
			t.Fatalf("query %d: aggregate %+v, want %+v", qi, ga, wa)
		}
	}
}
