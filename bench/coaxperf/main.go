// Command coaxperf is the repository's benchmark: it builds coaxserve,
// brings up each workload's server processes, checks their answers against a
// full-scan oracle, applies closed-loop load, and prints every metric by
// name and unit. See bench/README.md for the definitions.
//
//	coaxperf run   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//	coaxperf trace ...            same as run --trace 1
//
// Without --workload all four workloads run with their servers up together
// and their timed segments interleaved round-robin. The last line of
// standard output is one JSON object (the contract of BENCHMARK.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/coax-index/coax/internal/dataset"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists, in print order, the metrics a user of the servers sees.
// The first block is reported on every workload and is what BENCHMARK.json
// bounds; the second exists only where its operation type does.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"rows_p50_ms", "ms"},
	{"rows_p99_ms", "ms"},
	{"server_cpu_ms_per_req", "ms"},
	{"rss_mb", "MB"},
	{"index_overhead_kb", "kB"},
}

var workloadSpecific = []struct{ name, unit string }{
	{"agg_p50_ms", "ms"},
	{"agg_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"snapshot_bytes_per_row", "B/row"},
}

type harness struct {
	root, out, bin string
	seed           int64
	seconds        float64
	smoke          bool
	coldStarts     int
}

// workloadResult is one workload's entry in bench/out/result.json.
type workloadResult struct {
	Workload      string               `json:"workload"`
	Ops           int                  `json:"ops"`
	FailedOps     int                  `json:"failed_ops"`
	Segments      int                  `json:"segments"`
	SegmentS      float64              `json:"segment_s"`
	SetupRunsS    []float64            `json:"setup_runs_s,omitempty"`
	OracleChecked int                  `json:"oracle_checked"`
	Metrics       map[string]metric    `json:"metrics"`
	Raw           map[string]metric    `json:"raw,omitempty"` // the timing metrics before scaling by machine speed
	Samples       map[string]int       `json:"samples_per_segment,omitempty"`
	PerSegment    map[string][]float64 `json:"per_segment,omitempty"` // what the medians in Metrics were taken over
	Layers        map[string]metric    `json:"layers,omitempty"`
	Failures      []string             `json:"failures,omitempty"`
}

type result struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Clients   int              `json:"clients"`
	Started   string           `json:"started"`
	ElapsedS  float64          `json:"elapsed_s"`
	Workloads []workloadResult `json:"workloads,omitempty"` // the untraced run
	Traced    []workloadResult `json:"traced,omitempty"`    // the traced run
}

func main() {
	if len(os.Args) < 2 || (os.Args[1] != "run" && os.Args[1] != "trace") {
		fmt.Fprintln(os.Stderr, "usage: coaxperf run|trace [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--root DIR]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("coaxperf", flag.ExitOnError)
	var (
		root     = fs.String("root", "", "repository root (default: found upward from the working directory)")
		workload = fs.String("workload", "", "run only this workload (default: all, segments interleaved)")
		seed     = fs.Int64("seed", 1, "seed for queries and operations (datasets keep coaxserve's own seeds)")
		seconds  = fs.Float64("seconds", 40, "measured seconds per workload")
		trace    = fs.Int("trace", 0, "1: the traced run that reports the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "tiny datasets and sub-second phases: checks the harness, not the system")
	)
	fs.Parse(os.Args[2:])
	if os.Args[1] == "trace" {
		*trace = 1
	}

	code, err := run(*root, *workload, *seed, *seconds, *trace == 1, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coaxperf:", err)
		code = 1
	}
	os.Exit(code)
}

func run(root, only string, seed int64, seconds float64, trace, smoke bool) (code int, err error) {
	// Reap the servers on every exit path: return, error, signal, panic.
	defer children.stopAll()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "coaxperf: panic: %v\n%s", p, debug.Stack())
			code = 1
		}
	}()
	reapOnSignal()

	h := &harness{seed: seed, seconds: seconds, smoke: smoke, coldStarts: 3}
	if smoke {
		h.coldStarts = 1
		h.seconds = min(seconds, 0.5)
	}
	if h.root, err = findRoot(root); err != nil {
		return 1, err
	}
	h.out = filepath.Join(h.root, "bench", "out")
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return 1, err
	}
	h.bin = filepath.Join(h.out, "coaxserve")
	if pids := staleServers(h.bin); len(pids) > 0 {
		return 1, fmt.Errorf("coaxserve from an earlier run is still alive (pids %v); kill it first", pids)
	}
	if err := h.buildServer(); err != nil {
		return 1, err
	}

	specs := workloads
	if only != "" {
		s := findSpec(only)
		if s == nil {
			return 1, fmt.Errorf("unknown workload %q", only)
		}
		specs = []spec{*s}
	}
	if smoke {
		for i := range specs {
			specs[i] = specs[i].smoke()
		}
	}

	started := time.Now()
	res := result{Seed: seed, Seconds: h.seconds, Smoke: smoke, Clients: clients,
		Started: started.UTC().Format(time.RFC3339)}
	// The smoke run does both passes, so one command covers the harness.
	if !trace || smoke {
		if res.Workloads, err = h.measure(specs); err != nil {
			return 1, err
		}
	}
	if trace || smoke {
		for i := range specs {
			wr, err := h.traceWorkload(&specs[i])
			if err != nil {
				return 1, err
			}
			res.Traced = append(res.Traced, wr)
		}
	}
	res.ElapsedS = time.Since(started).Seconds()

	if err := writeJSON(filepath.Join(h.out, "result.json"), res); err != nil {
		return 1, err
	}
	printHuman(res)
	return printContractLine(res, only != ""), nil
}

// findRoot locates the repository: the directory holding both cmd/coaxserve
// and bench/coaxperf.
func findRoot(given string) (string, error) {
	isRoot := func(dir string) bool {
		for _, sub := range []string{"cmd/coaxserve", "bench/coaxperf", "go.mod"} {
			if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
				return false
			}
		}
		return true
	}
	if given != "" {
		abs, err := filepath.Abs(given)
		if err != nil {
			return "", err
		}
		if !isRoot(abs) {
			return "", fmt.Errorf("%s does not hold cmd/coaxserve and bench/coaxperf", abs)
		}
		return abs, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("repository root not found above the working directory; pass --root")
		}
		dir = parent
	}
}

// buildServer compiles cmd/coaxserve from the checkout into bench/out.
func (h *harness) buildServer() error {
	cmd := exec.Command("go", "build", "-o", h.bin, "./cmd/coaxserve")
	cmd.Dir = h.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building coaxserve: %w", err)
	}
	return nil
}

// prepared is a workload whose inputs exist and whose servers are up.
type prepared struct {
	spec     *spec
	tab      *dataset.Table
	r        *runner
	setups   []float64
	overhead int64 // index directory bytes, read once set-up is over
}

// prepare generates the spec's inputs from the seed, cold-starts its
// servers coldStarts times — keeping the last start — and warms them up.
func (h *harness) prepare(s *spec, coldStarts int) (*prepared, error) {
	t0 := time.Now()
	tab := s.table()
	reads, err := s.reads(tab, h.seed)
	if err != nil {
		return nil, err
	}
	progress("%s: inputs generated in %.1fs", s.Name, time.Since(t0).Seconds())
	p := &prepared{spec: s, tab: tab}
	var dep *deployment
	for i := range coldStarts {
		if dep, err = h.launch(s); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, dep.setupS)
		if i < coldStarts-1 {
			children.stopProcs(dep.procs)
		}
	}
	progress("%s: %d cold start(s): %.2fs", s.Name, coldStarts, p.setups)
	p.r = newRunner(s, dep, tab, reads, h.seed)
	p.r.base = newOracle(tab)
	if p.overhead, err = h.overheadBytes(p); err != nil {
		return nil, err
	}
	t0 = time.Now()
	p.r.warmup(s.Warmup)
	progress("%s: warm-up of %d ops in %.1fs", s.Name, min(s.Warmup, len(reads)), time.Since(t0).Seconds())
	return p, nil
}

// plan splits the measured seconds into one-second cycles: a stretch of
// load, then a reading of the reference server (refserver.go). Cycles are
// short because the machine's speed drifts within seconds and each segment
// is normalised by the readings on either side of it.
func (h *harness) plan() (cycles int, load time.Duration) {
	if h.seconds < 1 {
		return 1, time.Duration(h.seconds * float64(time.Second))
	}
	return int(h.seconds), time.Second - refReading
}

// measure is the untraced run: set-up, warm-up, one discarded segment, then
// rounds of one timed segment per workload.
func (h *harness) measure(specs []spec) ([]workloadResult, error) {
	ref, err := startRefServer()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var ps []*prepared
	for i := range specs {
		p, err := h.prepare(&specs[i], h.coldStarts)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	cycles, load := h.plan()
	if _, err := ps[0].r.run(load); err != nil { // discarded
		return nil, err
	}
	for range cycles {
		for _, p := range ps {
			if err := ref.bracket(p.r, load); err != nil {
				return nil, err
			}
		}
	}
	var out []workloadResult
	for _, p := range ps {
		out = append(out, h.finish(p, load))
	}
	return out, nil
}

// finish runs the post-phase checks, stops the workload's servers and folds
// its segments into metrics.
func (h *harness) finish(p *prepared, load time.Duration) workloadResult {
	r := p.r
	t0 := time.Now()
	checked := r.verifyLive(256)
	children.stopProcs(r.dep.procs)
	checked += r.verify()
	progress("%s: %d answers checked against the oracle in %.1fs", p.spec.Name, checked, time.Since(t0).Seconds())

	wr := newWorkloadResult(p, load, checked)
	wr.Metrics["setup_s"] = metric{median(p.setups), "s"}
	wr.Metrics["index_overhead_kb"] = metric{float64(p.overhead) / 1000, "kB"}
	return wr
}

// newWorkloadResult folds the runner's segments and failures into a result.
func newWorkloadResult(p *prepared, load time.Duration, checked int) workloadResult {
	r := p.r
	wr := workloadResult{
		Workload: p.spec.Name, Segments: len(r.segs), SegmentS: load.Seconds(),
		SetupRunsS: p.setups, OracleChecked: checked,
		Metrics: map[string]metric{}, Raw: map[string]metric{}, Samples: map[string]int{},
	}
	foldSegments(&wr, r.segs)
	if r.dep.snapBytes > 0 {
		wr.Metrics["snapshot_bytes_per_row"] = metric{float64(r.dep.snapBytes) / float64(p.spec.Rows), "B/row"}
	}
	wr.FailedOps, wr.Failures = r.failed, r.failures
	return wr
}

// foldSegments computes every load metric per segment and reports the median
// over segments (percentiles inside a segment, median across). Times are
// scaled by the segment's machine speed — the reference server's rate around
// it over refNominal — so that a slow minute of the shared machine does not
// read as a slow server; the unscaled medians are kept in Raw.
func foldSegments(wr *workloadResult, segs []segment) {
	per, raw := map[string][]float64{}, map[string][]float64{}
	counts := map[string][]float64{}
	for i := range segs {
		sg := &segs[i]
		speed := sg.ref / refNominal
		slower := func(name string, v float64) { // a time: shorter on a faster machine
			raw[name] = append(raw[name], v)
			per[name] = append(per[name], v*speed)
		}
		pcts := func(prefix string, hi float64, hiName string, keep func(opKind) bool) {
			ls := sg.latencies(keep)
			if len(ls) == 0 {
				return
			}
			slower(prefix+"_p50_ms", percentile(ls, 0.50))
			slower(prefix+"_"+hiName+"_ms", percentile(ls, hi))
			counts[prefix] = append(counts[prefix], float64(len(ls)))
		}
		wr.Ops += len(sg.samples)
		rps := float64(len(sg.samples)) / sg.wall.Seconds()
		raw["throughput_rps"] = append(raw["throughput_rps"], rps)
		per["throughput_rps"] = append(per["throughput_rps"], rps/speed)
		slower("server_cpu_ms_per_req", float64(sg.cpu)/float64(time.Millisecond)/float64(len(sg.samples)))
		per["rss_mb"] = append(per["rss_mb"], float64(sg.rss)/1e6)
		per["machine_speed"] = append(per["machine_speed"], speed)
		pcts("rows", 0.99, "p99", func(k opKind) bool { return k == opRows })
		pcts("agg", 0.99, "p99", func(k opKind) bool { return k == opAgg })
		// p95, not p99: a segment holds only a few dozen writes.
		pcts("write", 0.95, "p95", opKind.isWrite)
	}
	units := map[string]string{"machine_speed": "ratio"}
	for _, m := range append(endToEnd, workloadSpecific...) {
		units[m.name] = m.unit
	}
	for name, vs := range per {
		wr.Metrics[name] = metric{median(vs), units[name]}
	}
	for name, vs := range raw {
		wr.Raw[name] = metric{median(vs), units[name]}
	}
	for prefix, vs := range counts {
		wr.Samples[prefix] = int(median(vs))
	}
	wr.PerSegment = per
}

// overheadBytes is the index directory size the servers report after
// set-up — the paper's memory claim. The cluster router does not relay its
// nodes' figure, so for a cluster it is computed from an identical
// in-process build of every node's hosted shards.
func (h *harness) overheadBytes(p *prepared) (int64, error) {
	if p.spec.Deploy == deployCluster {
		return clusterOverheadBytes(p.spec, p.tab, p.r.dep.nodeAddrs)
	}
	var st struct {
		MemoryOverheadBytes int64 `json:"memory_overhead_bytes"`
	}
	if err := p.r.hc[0].getJSON("/stats", &st); err != nil {
		return 0, err
	}
	return st.MemoryOverheadBytes, nil
}

// --- output ---

// progress reports a phase on standard error; standard output is reserved
// for the results.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "coaxperf: "+format+"\n", args...)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func printHuman(res result) {
	fmt.Printf("coaxperf seed=%d seconds=%g clients=%d (closed loop) elapsed=%.1fs\n",
		res.Seed, res.Seconds, res.Clients, res.ElapsedS)
	for i, wr := range append(res.Workloads, res.Traced...) {
		kind := "untraced"
		if i >= len(res.Workloads) {
			kind = "traced"
		}
		fmt.Printf("\n== %s (%s): ops=%d failed_ops=%d segments=%d×%.2fs oracle_checked=%d machine_speed=%.3f\n",
			wr.Workload, kind, wr.Ops, wr.FailedOps, wr.Segments, wr.SegmentS, wr.OracleChecked, wr.Metrics["machine_speed"].Value)
		for _, m := range append(endToEnd, workloadSpecific...) {
			v, ok := wr.Metrics[m.name]
			if _, again := wr.Layers[m.name]; !ok || again {
				continue
			}
			note := ""
			for prefix, n := range wr.Samples {
				if strings.HasPrefix(m.name, prefix+"_") {
					note = fmt.Sprintf("  (%d samples/segment)", n)
				}
			}
			if raw, ok := wr.Raw[m.name]; ok {
				note = fmt.Sprintf("  (unscaled %.4f)%s", raw.Value, note)
			}
			fmt.Printf("  %-26s %14.4f %-6s%s\n", m.name, v.Value, v.Unit, note)
		}
		for _, k := range sortedKeys(wr.Layers) {
			fmt.Printf("  %-34s %16.4f %s\n", k, wr.Layers[k].Value, wr.Layers[k].Unit)
		}
		for _, f := range wr.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
}

// printContractLine prints the final JSON line BENCHMARK.json's driver
// reads and returns the exit code: non-zero when any operation failed or
// any answer disagreed with the oracle.
func printContractLine(res result, single bool) int {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, wr := range append(res.Workloads, res.Traced...) {
		out.Attempted += wr.Ops
		out.Failed += wr.FailedOps
		prefix := ""
		if !single {
			prefix = wr.Workload + "/"
		}
		// A traced result carries layers; an untraced one the end-to-end set.
		for k, v := range wr.Layers {
			out.Metrics[prefix+k] = v
		}
		if wr.Layers == nil {
			for _, m := range endToEnd {
				out.Metrics[prefix+m.name] = wr.Metrics[m.name]
			}
		}
	}
	out.Correct = out.Failed == 0
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
