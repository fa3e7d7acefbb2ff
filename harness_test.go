package benchmarks

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchHarnessBuilds compiles bench/, the nested module holding the
// repository's benchmark, against this checkout: the harness imports
// internal packages and builds cmd/coaxserve, so deleting an API it calls
// must fail tier-1 rather than the next benchmark run. No network is
// involved — the nested module's only requirement is replaced onto "../".
func TestBenchHarnessBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module; skipped under -short")
	}
	cmd := exec.Command("go", "build", "-o", t.TempDir(), "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./... in bench/: %v\n%s", err, out)
	}
}
