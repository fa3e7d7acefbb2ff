package main

import (
	"cmp"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/snapshot"
)

// TestBuildInfoQueryBench drives the full CLI flow against a temp
// directory: build → save, then info / query answer from the snapshot
// alone — the built file, and 2-shard raw and compressed files (what
// coaxserve serve -save and convert -compress write), through the same path.
func TestBuildInfoQueryBench(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "osm.coax")

	if err := cmdBuild([]string{"-dataset", "osm", "-rows", "20000", "-out", snap}); err != nil {
		t.Fatalf("build: %v", err)
	}
	so := coax.DefaultShardOptions()
	so.NumShards = 2
	sharded, err := coax.NewBuilder(coax.ColumnsSchema([]string{"id", "timestamp", "lat", "lon"}), coax.DefaultOptions()).
		BuildSharded(coax.NewOSMSource(coax.DefaultOSMConfig(20000), 0), so)
	if err != nil {
		t.Fatal(err)
	}
	raw, packed := filepath.Join(dir, "sharded.v3"), filepath.Join(dir, "sharded.v3c")
	if err := coax.SaveShardedFileV3(raw, sharded, false); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFileV3(packed, sharded, true); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{snap, raw, packed} {
		info := stdoutOf(t, func() error { return cmdInfo([]string{"-in", path, "-metrics"}) })
		if !strings.Contains(info, "format version 3") {
			t.Errorf("%s: info does not report format version 3:\n%s", path, info)
		}
		// The offline metric rendering uses the exact series names coaxserve
		// exports at /metrics, so the two views can be diffed name for name.
		for _, series := range []string{
			"coax_live_rows", "coax_outlier_ratio", "coax_tombstone_ratio",
			"coax_index_epoch", "coax_memory_overhead_bytes", "coax_primary_pages",
		} {
			if !strings.Contains(info, "# TYPE "+series+" gauge") {
				t.Errorf("%s: info -metrics lacks %s:\n%s", path, series, info)
			}
		}
		if !strings.Contains(info, "primary rows ") || !strings.Contains(info, "coax_live_rows 20000\n") ||
			strings.Contains(info, "coax_primary_pages 0\n") {
			t.Errorf("%s: info lacks the index stats:\n%s", path, info)
		}
		// Constrain the timestamp (a dependent column): answering requires the
		// persisted soft-FD models, not a re-detection.
		if err := cmdQuery([]string{"-in", path, "-min", "_,100,_,_", "-max", "_,5000,_,_"}); err != nil {
			t.Fatalf("query %s: %v", path, err)
		}
		if err := cmdQuery([]string{"-in", path, "-min", "10,_,_,_", "-max", "200,_,_,_", "-limit", "3"}); err != nil {
			t.Fatalf("query %s with limit: %v", path, err)
		}
	}
}

// stdoutOf runs fn with os.Stdout sent to a file and returns what it wrote.
func stdoutOf(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestQueryBadBounds(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "x.coax")
	if err := cmdBuild([]string{"-dataset", "osm", "-rows", "5000", "-out", snap}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := cmdQuery([]string{"-in", snap, "-min", "1,2"}); err == nil {
		t.Fatal("wrong-arity -min accepted")
	}
	if err := cmdQuery([]string{"-in", snap, "-min", "a,_,_,_"}); err == nil {
		t.Fatal("non-numeric bound accepted")
	}
}

// TestExplainSubcommand builds an airline snapshot and asserts the explain
// subcommand runs against both name-based and rectangle constraints, on
// single and (via coaxserve-style save) sharded-free snapshots.
func TestExplainSubcommand(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "air.coax")
	if err := cmdBuild([]string{"-dataset", "airline", "-rows", "30000", "-out", snap}); err != nil {
		t.Fatalf("build: %v", err)
	}
	// Name-based predicate on a dependent column, with a limit.
	if err := cmdExplain([]string{"-in", snap, "-where", "airtime:60:90", "-limit", "25"}); err != nil {
		t.Fatalf("explain -where: %v", err)
	}
	// Rectangle bounds plus JSON output.
	if err := cmdExplain([]string{"-in", snap, "-min", "_,_,60,_,_,_,_,_", "-max", "_,_,90,_,_,_,_,_", "-json"}); err != nil {
		t.Fatalf("explain -min/-max -json: %v", err)
	}
	// Unknown column names fail loudly instead of matching nothing.
	if err := cmdExplain([]string{"-in", snap, "-where", "altitude:0:1"}); err == nil {
		t.Fatal("explain accepted an unknown column")
	}
}

// TestStreamingBuildSubcommand exercises the v2 ingestion surface of the
// CLI: a sampled streaming build from a CSV file must produce an index
// that counts identically to the materialized build of the same data.
func TestStreamingBuildSubcommand(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "osm.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(20000))
	if err := coax.WriteCSV(f, tab); err != nil {
		t.Fatal(err)
	}
	f.Close()

	exact := filepath.Join(dir, "exact.coax")
	streamed := filepath.Join(dir, "streamed.coax")
	if err := cmdBuild([]string{"-csv", csvPath, "-out", exact, "-q"}); err != nil {
		t.Fatalf("materialized build: %v", err)
	}
	if err := cmdBuild([]string{"-csv", csvPath, "-sample", "2000", "-out", streamed, "-q"}); err != nil {
		t.Fatalf("streaming build: %v", err)
	}

	a, _, err := loadIndex(exact)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loadIndex(streamed)
	if err != nil {
		t.Fatal(err)
	}
	r := coax.FullRect(4)
	r.Min[1], r.Max[1] = 5000, 30000
	ca, err := coax.FromRect(r).Count(a)
	if err != nil {
		t.Fatal(err)
	}
	if cb, err := coax.FromRect(r).Count(b); err != nil || ca != cb {
		t.Fatalf("streamed snapshot counts %d (%v), exact counts %d", cb, err, ca)
	}
}

// TestBuildRefusesNonFiniteCSV: build -csv over a file holding a NaN fails,
// materialized or streaming, naming the value's row and column, and writes
// no index.
func TestBuildRefusesNonFiniteCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "osm.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(20000))
	tab.Row(15000)[3] = math.NaN()
	if err := coax.WriteCSV(f, tab); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := filepath.Join(dir, "osm.coax")
	for _, args := range [][]string{{}, {"-sample", "2000"}} {
		err := cmdBuild(append([]string{"-csv", csvPath, "-out", out, "-q"}, args...))
		if err == nil || !strings.Contains(err.Error(), "row 15000, column 3 (lon) holds NaN") {
			t.Fatalf("build %v: %v, want an error naming row 15000, column 3", args, err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("build %v left %s behind (%v)", args, out, err)
		}
	}
}

// TestConvertSubcommand converts each committed fixture to v3, then that
// file to a compressed one: both answer every query bit-identically to the
// input as read — the legacy decode of a v1/v2 file, which info refuses
// with an error naming convert, or the opened v3 file, whose R-tree
// outliers are regridded and written as an outlier grid.
func TestConvertSubcommand(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"osm600-2shard.v2", "osm-rtree.v1", "osm-rtree.v3"} {
		in := filepath.Join("..", "..", "internal", "snapshot", "testdata", file)
		data, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		var legacy *coax.Index
		if strings.HasSuffix(file, ".v3") {
			var sn *coax.Snapshot
			if legacy, sn, err = loadIndex(in); err != nil {
				t.Fatal(err)
			}
			defer sn.Close()
		} else {
			if legacy, err = snapshot.Decode(data); err != nil {
				t.Fatal(err)
			}
			if err := cmdInfo([]string{"-in", in}); err == nil || !strings.Contains(err.Error(), "coaxstore convert") {
				t.Errorf("info on %s: %v, want an error naming coaxstore convert", file, err)
			}
		}
		raw, packed := filepath.Join(dir, file+".v3"), filepath.Join(dir, file+".v3c")
		stdoutOf(t, func() error { return cmdConvert([]string{"-in", in, "-out", raw}) })
		stdoutOf(t, func() error { return cmdConvert([]string{"-in", raw, "-out", packed, "-compress"}) })
		for _, path := range []string{raw, packed} {
			if info := stdoutOf(t, func() error { return cmdInfo([]string{"-in", path}) }); strings.Contains(info, `"ortr"`) ||
				!strings.Contains(info, "outlier grid:") {
				t.Errorf("%s: info shows an R-tree section or no outlier grid:\n%s", path, info)
			}
			idx, sn, err := loadIndex(path)
			if err != nil {
				t.Fatal(err)
			}
			// 30 rectangles between the values of random rows, and the full one.
			rows, err := coax.NewQuery().Collect(legacy)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			rects := []coax.Rect{coax.FullRect(idx.Dims())}
			for range 30 {
				r := coax.FullRect(idx.Dims())
				for d := range idx.Dims() {
					if rng.Intn(2) == 0 {
						a, b := rows[rng.Intn(len(rows))][d], rows[rng.Intn(len(rows))][d]
						r.Min[d], r.Max[d] = min(a, b), max(a, b)
					}
				}
				rects = append(rects, r)
			}
			for qi, r := range rects {
				want, err := coax.FromRect(r).Collect(legacy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coax.FromRect(r).Collect(idx)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(sortRows(want), sortRows(got), func(a, b []float64) bool {
					return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
				}) {
					t.Fatalf("%s query %d: %d rows, legacy decode %d, or rows differ", path, qi, len(got), len(want))
				}
			}
			if err := sn.PageErr(); err != nil {
				t.Fatal(err)
			}
			sn.Close()
		}
	}
}

// sortRows sorts rows by bit pattern, in place, and returns them.
func sortRows(rows [][]float64) [][]float64 {
	slices.SortFunc(rows, func(a, b []float64) int {
		for k := range a {
			if c := cmp.Compare(math.Float64bits(a[k]), math.Float64bits(b[k])); c != 0 {
				return c
			}
		}
		return 0
	})
	return rows
}
