package coax_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/coax"
)

// TestPublicAPIEndToEnd exercises the documented workflow: build a table,
// index it, and query it through every public entry point.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	table := coax.NewTable([]string{"x", "d", "u"})
	for i := 0; i < 15000; i++ {
		x := rng.Float64() * 100
		table.Append([]float64{x, 3*x + rng.NormFloat64(), rng.Float64() * 10})
	}

	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 5000
	idx, err := coax.NewBuilder(coax.TableSchema(table), opt).Build(coax.NewTableSource(table, 0))
	if err != nil {
		t.Fatal(err)
	}

	st := idx.BuildStats()
	if len(st.Groups) != 1 {
		t.Fatalf("expected one detected group, got %d", len(st.Groups))
	}
	if st.PrimaryRatio < 0.9 {
		t.Errorf("primary ratio = %g", st.PrimaryRatio)
	}

	// Range query on the dependent column only.
	q := coax.FullRect(3)
	q.Min[1], q.Max[1] = 90, 120
	n := count(t, idx, q)

	// Verify against a manual scan of the table.
	want := 0
	for i := 0; i < table.Len(); i++ {
		v := table.Row(i)[1]
		if v >= 90 && v <= 120 {
			want++
		}
	}
	if n != want {
		t.Errorf("Count = %d, want %d", n, want)
	}

	rows, err := coax.FromRect(q).Collect(idx)
	if err != nil || len(rows) != want {
		t.Errorf("Collect returned %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row[1] < 90 || row[1] > 120 {
			t.Fatalf("row %v outside query range", row)
		}
	}

	// Point query round trip.
	p := coax.PointQuery(table.Row(42))
	if count(t, idx, p) < 1 {
		t.Error("point query lost its row")
	}
}

// build builds tab into an index of the given number of shards, under the
// default shard options otherwise.
func build(t testing.TB, tab *coax.Table, opt coax.Options, shards int) *coax.Index {
	t.Helper()
	so := coax.DefaultShardOptions()
	so.NumShards = shards
	idx, err := coax.NewBuilder(coax.TableSchema(tab), opt).BuildSharded(coax.NewTableSource(tab, 0), so)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// count is the number of rows of idx inside r.
func count(t testing.TB, idx *coax.Index, r coax.Rect) int {
	t.Helper()
	n, err := coax.FromRect(r).Count(idx)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGeneratorsThroughPublicAPI(t *testing.T) {
	osm := coax.GenerateOSM(coax.DefaultOSMConfig(5000))
	if osm.Len() != 5000 || osm.Dims() != 4 {
		t.Errorf("OSM shape %dx%d", osm.Len(), osm.Dims())
	}
	air := coax.GenerateAirline(coax.DefaultAirlineConfig(5000))
	if air.Len() != 5000 || air.Dims() != 8 {
		t.Errorf("airline shape %dx%d", air.Len(), air.Dims())
	}
}

func TestCSVThroughPublicAPI(t *testing.T) {
	table := coax.NewTable([]string{"a", "b"})
	table.Append([]float64{1, 2})
	var buf bytes.Buffer
	if err := coax.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	back, err := coax.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 || back.Row(0)[1] != 2 {
		t.Error("CSV round trip failed")
	}
}

func TestRectHelpers(t *testing.T) {
	r := coax.NewRect([]float64{0}, []float64{1})
	if !r.Contains([]float64{0.5}) {
		t.Error("NewRect broken")
	}
	f := coax.FullRect(2)
	if !math.IsInf(f.Min[0], -1) || !math.IsInf(f.Max[1], 1) {
		t.Error("FullRect bounds broken")
	}
}

func TestBuildOnRealisticAirline(t *testing.T) {
	table := coax.GenerateAirline(coax.DefaultAirlineConfig(30000))
	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 10000
	// Categorical columns are excluded from FD detection, as a DBA would.
	opt.SoftFD.ExcludeCols = []int{6, 7}
	idx := build(t, table, opt, 1)
	st := idx.BuildStats()
	if len(st.Groups) < 1 {
		t.Fatal("no FD groups detected on airline data")
	}
	if st.DependentDims < 1 {
		t.Error("no dependent dims on airline data")
	}
	if st.PrimaryRatio < 0.5 {
		t.Errorf("primary ratio = %g, implausibly low", st.PrimaryRatio)
	}

	// Correctness spot check against manual filtering.
	q := coax.FullRect(8)
	q.Min[0], q.Max[0] = 500, 900 // distance
	q.Min[2], q.Max[2] = 60, 150  // airtime (dependent)
	want := 0
	for i := 0; i < table.Len(); i++ {
		row := table.Row(i)
		if row[0] >= 500 && row[0] <= 900 && row[2] >= 60 && row[2] <= 150 {
			want++
		}
	}
	if got := count(t, idx, q); got != want {
		t.Errorf("airline query: %d, want %d", got, want)
	}
}
