package coax_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := coax.NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := coax.NewSchema(coax.Float("")); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := coax.NewSchema(coax.Float("a"), coax.Int("a")); err == nil {
		t.Error("duplicate name accepted")
	}
	s, err := coax.NewSchema(coax.Float("a"), coax.Int("b"), coax.Categorical("c"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Names(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("Names = %v", got)
	}
}

func TestBuilderSchemaMismatch(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(100))
	schema, err := coax.NewSchema(coax.Float("id"), coax.Float("timestamp"), coax.Float("lat"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = coax.NewBuilder(schema, coax.DefaultOptions()).Build(coax.NewTableSource(tab, 0))
	if err == nil || !strings.Contains(err.Error(), "4 columns") {
		t.Fatalf("column-count mismatch not reported: %v", err)
	}

	schema, err = coax.NewSchema(coax.Float("id"), coax.Float("ts"), coax.Float("lat"), coax.Float("lon"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = coax.NewBuilder(schema, coax.DefaultOptions()).Build(coax.NewTableSource(tab, 0))
	if err == nil || !strings.Contains(err.Error(), `"ts"`) {
		t.Fatalf("column-name mismatch not reported: %v", err)
	}
}

// TestCategoricalColumnsExcludedFromFDs declares a perfectly correlated
// column categorical; the detector must then skip it even though a linear
// model would fit it exactly.
func TestCategoricalColumnsExcludedFromFDs(t *testing.T) {
	tab := coax.NewTable([]string{"x", "y", "z"})
	for i := 0; i < 5000; i++ {
		v := float64(i)
		tab.Append([]float64{v, 2 * v, float64(i % 7)})
	}

	schemaAll, _ := coax.NewSchema(coax.Float("x"), coax.Float("y"), coax.Float("z"))
	idx, err := coax.NewBuilder(schemaAll, coax.DefaultOptions()).Build(coax.NewTableSource(tab, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.BuildStats().Groups) == 0 {
		t.Fatal("x→y dependency not detected with an all-float schema")
	}

	schemaCat, _ := coax.NewSchema(coax.Float("x"), coax.Categorical("y"), coax.Categorical("z"))
	idx, err = coax.NewBuilder(schemaCat, coax.DefaultOptions()).Build(coax.NewTableSource(tab, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range idx.BuildStats().Groups {
		for _, m := range g.Members {
			if m == 1 || m == 2 {
				t.Fatalf("categorical column %d appears in group %v", m, g.Members)
			}
		}
	}
}

// TestBuilderPrefixMode streams from a non-replayable reader: the build
// must fall back to prefix sampling and still answer queries exactly.
func TestBuilderPrefixMode(t *testing.T) {
	cfg := coax.DefaultOSMConfig(12000)
	tab := coax.GenerateOSM(cfg)
	var buf bytes.Buffer
	if err := coax.WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	src, err := coax.NewCSVSource(bytes.NewReader(buf.Bytes()), 512)
	if err != nil {
		t.Fatal(err)
	}

	idx, err := coax.NewBuilder(coax.TableSchema(tab), coax.DefaultOptions()).
		SampleSize(2000).
		Build(src)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != tab.Len() {
		t.Fatalf("index holds %d rows, want %d", idx.Len(), tab.Len())
	}

	r := coax.FullRect(4)
	r.Min[1], r.Max[1] = 2000, 9000
	if got, want := count(t, idx, r), scanCount(tab, r); got != want {
		t.Fatalf("prefix-mode count %d, table scan %d", got, want)
	}
}

// TestBuilderProgressPhases checks the callback walks the documented
// phases in order for a sampled streaming build.
func TestBuilderProgressPhases(t *testing.T) {
	cfg := coax.DefaultOSMConfig(9000)
	schema, err := coax.NewSchema(
		coax.Int("id"), coax.Float("timestamp"), coax.Float("lat"), coax.Float("lon"))
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	_, err = coax.NewBuilder(schema, coax.DefaultOptions()).
		SampleSize(1500).
		Progress(func(p coax.BuildProgress) {
			if len(phases) == 0 || phases[len(phases)-1] != p.Phase {
				phases = append(phases, p.Phase)
			}
		}).
		Build(coax.NewOSMSource(cfg, 1024))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sample", "detect", "place", "finish"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

// TestBuilderShardedStreaming drives the direct-to-sharded path through
// the public API and cross-checks counts against a scan of the table.
func TestBuilderShardedStreaming(t *testing.T) {
	cfg := coax.DefaultAirlineConfig(15000)
	tab := coax.GenerateAirline(cfg)

	so := coax.DefaultShardOptions()
	so.NumShards = 4
	sharded, err := coax.NewBuilder(coax.TableSchema(tab), coax.DefaultOptions()).
		SampleSize(3000).
		BuildSharded(coax.NewAirlineSource(cfg, 2048), so)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Len() != tab.Len() {
		t.Fatalf("sharded holds %d rows, want %d", sharded.Len(), tab.Len())
	}

	r := coax.FullRect(8)
	r.Min[2], r.Max[2] = 60, 120 // airtime between 60 and 120 minutes
	if got, want := count(t, sharded, r), scanCount(tab, r); got != want {
		t.Fatalf("sharded streaming count %d, table scan %d", got, want)
	}
}

// scanCount is the number of rows of tab inside r.
func scanCount(tab *coax.Table, r coax.Rect) int {
	n := 0
	for i := 0; i < tab.Len(); i++ {
		if r.Contains(tab.Row(i)) {
			n++
		}
	}
	return n
}

// TestBuildRefusesNonFiniteCSV: a CSV source may carry NaN and ±Inf, which
// an index cannot hold, so every build path — materialized, a prefix sample
// of a one-shot reader, a reservoir over a replayable file, with the value
// inside the sample or past it — fails with an error naming the value's row
// and column instead of building an index that loses rows.
func TestBuildRefusesNonFiniteCSV(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		row    int
		value  float64
		sample int
		file   bool
	}{
		{"materialized", 4321, math.NaN(), 0, false},
		{"prefix sample", 123, math.NaN(), 2000, false},
		{"past the prefix", 12345, math.Inf(1), 2000, false},
		{"reservoir", 12345, math.Inf(-1), 2000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := coax.GenerateOSM(coax.DefaultOSMConfig(20000))
			tab.Row(tc.row)[2] = tc.value
			var csv bytes.Buffer
			if err := coax.WriteCSV(&csv, tab); err != nil {
				t.Fatal(err)
			}
			var src coax.RowSource
			if tc.file {
				path := filepath.Join(dir, "osm.csv")
				if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				f, err := coax.OpenCSVFile(path, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				src = f
			} else {
				var err error
				if src, err = coax.NewCSVSource(&csv, 0); err != nil {
					t.Fatal(err)
				}
			}
			so := coax.DefaultShardOptions()
			so.NumShards = 2
			before := runtime.NumGoroutine()
			_, err := coax.NewBuilder(coax.ColumnsSchema(src.Columns()), coax.DefaultOptions()).
				SampleSize(tc.sample).BuildSharded(src, so)
			want := fmt.Sprintf("row %d, column 2 (lat) holds %v", tc.row, tc.value)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("build: %v, want an error naming %q", err, want)
			}
			// The failed build stopped its shard workers.
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					t.Fatalf("%d goroutines after the failed build, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
