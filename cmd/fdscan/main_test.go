package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
)

// TestRun scans a generated airline CSV with the categorical columns
// excluded and finds the generator's two correlation groups; bad input
// gives a non-zero status.
func TestRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "airline.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exclude", "6,7", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("status %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	_, groups, ok := strings.Cut(out, "== merged groups")
	if !ok {
		t.Fatalf("no merged-groups table in:\n%s", out)
	}
	got := map[string]string{}
	for _, line := range strings.Split(groups, "\n")[2:] {
		if pred, deps, ok := strings.Cut(strings.TrimSpace(line), " "); ok {
			got[pred] = strings.TrimSpace(deps)
		}
	}
	want := map[string]string{"elapsed": "distance, airtime", "schedarr": "deptime, arrtime"}
	if len(got) != len(want) || got["elapsed"] != want["elapsed"] || got["schedarr"] != want["schedarr"] {
		t.Errorf("merged groups %q, want %q; output:\n%s", got, want, out)
	}

	for _, args := range [][]string{
		{"-exclude", "6,x", path},
		{filepath.Join(t.TempDir(), "missing.csv")},
		{},
	} {
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%q) succeeded, want a non-zero status", args)
		}
	}
}
