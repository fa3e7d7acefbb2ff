package bench_test

// The smoke test runs the whole benchmark — build, servers, oracle, timed
// load, traced replay — on tiny inputs, so that a change which removes an API
// the harness calls, or renames a metric BENCHMARK.json lists, fails
// `go test ./...` in bench/ before it fails a real run.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes; skipped under -short")
	}
	bench, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(bench)
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if err := os.MkdirAll(filepath.Join(bench, "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(bench, "out", "coaxperf-smoke")
	if out, err := exec.Command("go", "build", "-o", bin, "./coaxperf").CombinedOutput(); err != nil {
		t.Fatalf("building coaxperf: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "run", "--smoke", "--seed", "7", "--root", root)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("coaxperf run --smoke: %v\n%s\n%s", err, stdout.Bytes(), stderr.Bytes())
	}

	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.Bytes())
	}
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			got, ok := res.Metrics[w.Name+"/"+m.Name]
			if !ok || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive (%v)", w.Name, m.Name, got.Value)
			}
		}
		for _, m := range mf.PerLayer {
			if _, ok := res.Metrics[w.Name+"/"+m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
	}
	want := len(mf.Workloads) * (len(mf.EndToEnd) + len(mf.PerLayer))
	if len(res.Metrics) != want {
		t.Errorf("run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), want)
	}
}
