package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coax-index/coax/coax"
)

// TestBuildInfoQueryBench drives the full CLI flow against a temp
// directory: build → save, then info / query answer from the snapshot
// alone — the built file, and 2-shard v2 and v3 files (what coaxserve
// serve -save and convert write), through the same path.
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
	shardedV2, shardedV3 := filepath.Join(dir, "sharded.v2"), filepath.Join(dir, "sharded.v3")
	if err := coax.SaveShardedFile(shardedV2, sharded); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFileV3(shardedV3, sharded, true); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{snap, shardedV2, shardedV3} {
		info := stdoutOf(t, func() error { return cmdInfo([]string{"-in", path, "-metrics"}) })
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

	a, _, err := loadAnyIndex(exact)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loadAnyIndex(streamed)
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
