package main

// The workloads are data: one spec per row of the table in bench/README.md.
// Everything below the table is generic — how a spec's servers are started,
// how its operation list is generated from the seed, and how an operation is
// rendered onto the HTTP API.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// clients is the closed-loop client count: one per CPU of the 2-core box
// the bounds in BENCHMARK.json were sized on. Fixed, not runtime.NumCPU(),
// so numbers from different machines describe the same experiment.
const clients = 2

type deployKind int

const (
	deployServe    deployKind = iota // coaxserve serve -dataset ... (build at start-up)
	deploySnapshot                   // harness builds + encodes v3, coaxserve serve -in
	deployCluster                    // 2 × coaxserve node + coaxserve router
)

type spec struct {
	Name    string
	Why     string
	Dataset string // osm | airline
	Rows    int
	Shards  int
	Deploy  deployKind
	Args    []string // extra flags of the front process (serve or router)

	RowRects  int // distinct row-query rectangles
	RowTarget int // rows each is sized to match
	Limit     int // "limit" sent with row queries; 0 sends none, so the server's default of 1000 rows applies
	AggRects  int // distinct aggregate rectangles (sized to match Rows/50); alternate with row queries
	Zipf      float64
	WriteFrac float64 // share of client 0's operations that are writes
	Warmup    int     // operations issued, fully decoded and oracle-sampled before timing

	TraceOps   int  // operations the traced run replays over HTTP and in process
	PaperShape bool // the traced run also times the paper's baselines on these rects
}

// cacheEntries is coaxserve's default -cache-size; the cyclic workloads
// need more distinct operations than this so that every lookup misses, the
// Zipf workload fewer so that its key set fits.
const cacheEntries = 4096

var workloads = []spec{
	{
		Name:    "scan-heap",
		Why:     "distinct rects cycled past the result cache: core/gridfile/shard do the work, row (Yield) and aggregate (ScanBatch) paths alternate",
		Dataset: "osm", Rows: 2_000_000, Shards: 4, Deploy: deployServe,
		Args:     []string{"-compact-interval", "0"},
		RowRects: 8192, RowTarget: 200, AggRects: 8192,
		Warmup:   cacheEntries + 512,
		TraceOps: 2000, PaperShape: true,
	},
	{
		Name:    "mapped-cold",
		Why:     "compressed v3 snapshot whose decoded pages (~78 MB) exceed the 32 MiB page LRU: mmapsnap page decode dominates; second dataset, two FD groups",
		Dataset: "airline", Rows: 1_000_000, Shards: 4, Deploy: deploySnapshot,
		// A result cache that never hits should not grow all through the
		// run either: 256 entries are full before the warm-up ends, so the
		// resident set is level (at the default 4096 it climbs with every
		// operation and rss_mb reads the run's throughput).
		Args:     []string{"-compact-interval", "0", "-cache-size", "256"},
		RowRects: 8192, RowTarget: 200, Limit: 100,
		Warmup: 512,
		// 250, not 2000: a query costs ~10 ms here and the in-process
		// replay runs each one five times over (three engines, two
		// decompositions).
		TraceOps: 250,
	},
	{
		Name:    "hot-mixed",
		Why:     "Zipf(1.1) reads over a key set that fits the result cache plus 2% writes: internal/serve answers reads, lifecycle mutations invalidate them",
		Dataset: "osm", Rows: 2_000_000, Shards: 4, Deploy: deployServe,
		// 1s, not the 30s default: the traced run, whose servers live for
		// ten seconds, still sees >= 8 sweeps.
		Args:     []string{"-compact-interval", "1s"},
		RowRects: 2048, RowTarget: 200,
		Zipf: 1.1, WriteFrac: 0.02,
		Warmup:   2048,
		TraceOps: 2000,
	},
	{
		Name:    "cluster-scatter",
		Why:     "scan-heap's row rects through router + 2 nodes (8 shards, rf 2, hedging): scatter-gather, row buffering and wire framing on top of the same kernels",
		Dataset: "osm", Rows: 1_000_000, Shards: 8, Deploy: deployCluster,
		Args:     []string{"-cache-size", "256"}, // as for mapped-cold
		RowRects: 8192, RowTarget: 200,
		Warmup:   1024,
		TraceOps: 1000,
	},
}

func findSpec(name string) *spec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smoke shrinks a spec so the whole benchmark runs in seconds (the smoke
// test); ratios between key-set size and cache size are not preserved.
func (s spec) smoke() spec {
	s.Rows = 20_000
	s.RowRects = min(s.RowRects, 256)
	s.AggRects = min(s.AggRects, 256)
	s.RowTarget = 50
	s.Warmup = min(s.Warmup, 128)
	s.TraceOps = 50
	return s
}

func (s *spec) table() *dataset.Table {
	if s.Dataset == "airline" {
		return dataset.GenerateAirline(dataset.DefaultAirlineConfig(s.Rows))
	}
	return dataset.GenerateOSM(dataset.DefaultOSMConfig(s.Rows))
}

// --- operations ---

type opKind uint8

const (
	opRows opKind = iota
	opAgg
	opInsert
	opDelete
	opUpdate
)

func (k opKind) String() string {
	return [...]string{"rows", "agg", "insert", "delete", "update"}[k]
}

func (k opKind) isWrite() bool { return k >= opInsert }

// op is one request, rendered for HTTP (path, body) and kept in engine form
// (rect, agg, rows) for the oracle and the in-process replay.
type op struct {
	kind  opKind
	path  string
	body  []byte
	rect  index.Rect
	limit int
	agg   index.AggSpec
	row   []float64 // insert/delete row, update's old row
	repl  []float64 // update's new row
}

// aggCycle is the aggregate mix of scan-heap, addressed by position because
// the cluster router knows no column names: count, sum(lon), min(timestamp),
// avg(lat) on the OSM schema.
var aggCycle = []index.AggSpec{
	{Op: index.AggCount, Col: -1, Group: -1},
	{Op: index.AggSum, Col: 3, Group: -1},
	{Op: index.AggMin, Col: 1, Group: -1},
	{Op: index.AggAvg, Col: 2, Group: -1},
}

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		if math.IsInf(v, 0) {
			b = append(b, "null"...) // unconstrained side
		} else {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
	}
	return append(b, ']')
}

func rectBody(r index.Rect) []byte {
	b := append([]byte(nil), `{"min":`...)
	b = appendFloats(b, r.Min)
	b = append(b, `,"max":`...)
	return appendFloats(b, r.Max)
}

// serverRowLimit is coaxserve's defaultRowLimit: the rows a reply carries
// when the request names no limit (the count is always exact).
const serverRowLimit = 1000

func rowsOp(r index.Rect, limit int) op {
	b := rectBody(r)
	if limit == 0 {
		limit = serverRowLimit
	} else {
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(limit), 10)
	}
	return op{kind: opRows, path: "/query", body: append(b, '}'), rect: r, limit: limit}
}

func aggOp(r index.Rect, a index.AggSpec) op {
	b := rectBody(r)
	b = append(b, `,"agg":{"op":"`...)
	b = append(b, a.Op.String()...)
	b = append(b, '"')
	if a.Col >= 0 {
		b = append(b, `,"dim":`...)
		b = strconv.AppendInt(b, int64(a.Col), 10)
	}
	return op{kind: opAgg, path: "/query", body: append(b, "}}"...), rect: r, agg: a}
}

func writeOp(m workload.MixOp) op {
	switch m.Kind {
	case workload.OpInsert:
		return op{kind: opInsert, path: "/insert", body: append(appendFloats([]byte(`{"row":`), m.Row), '}'), row: m.Row}
	case workload.OpDelete:
		return op{kind: opDelete, path: "/delete", body: append(appendFloats([]byte(`{"row":`), m.Row), '}'), row: m.Row}
	default:
		b := appendFloats([]byte(`{"old":`), m.Old)
		b = appendFloats(append(b, `,"new":`...), m.New)
		return op{kind: opUpdate, path: "/update", body: append(b, '}'), row: m.Old, repl: m.New}
	}
}

// reads generates the spec's read operations from the seed: row queries,
// alternating with aggregates when the spec has them (even = rows, odd =
// aggregate).
func (s *spec) reads(tab *dataset.Table, seed int64) ([]op, error) {
	gen := workload.NewGenerator(tab, seed)
	rows, err := distinctRects(gen, s.RowRects, min(s.RowTarget, tab.Len()))
	if err != nil {
		return nil, err
	}
	if s.AggRects == 0 {
		ops := make([]op, len(rows))
		for i, r := range rows {
			ops[i] = rowsOp(r, s.Limit)
		}
		return ops, nil
	}
	aggs, err := distinctRects(gen, s.AggRects, max(1, tab.Len()/50))
	if err != nil {
		return nil, err
	}
	ops := make([]op, 0, len(rows)+len(aggs))
	for i := range max(len(rows), len(aggs)) {
		if i < len(rows) {
			ops = append(ops, rowsOp(rows[i], s.Limit))
		}
		if i < len(aggs) {
			ops = append(ops, aggOp(aggs[i], aggCycle[i%len(aggCycle)]))
		}
	}
	return ops, nil
}

// distinctRects draws selectivity-targeted rectangles until n different ones
// exist: quantile windows clipped at the edges of the data repeat (6% of
// wide windows do), and a repeated rectangle would hit the result cache on
// the workloads built to miss it.
func distinctRects(gen *workload.Generator, n, target int) ([]index.Rect, error) {
	out := make([]index.Rect, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		// At least 64 per draw: when one rectangle is missing, a draw of one
		// that happens to repeat must not read as "the table has no more".
		batch, err := gen.SelectivityRects(max(64, n-len(out)), target)
		if err != nil {
			return nil, err
		}
		before := len(out)
		for _, r := range batch {
			if key := string(rectBody(r)); !seen[key] && len(out) < n {
				seen[key] = true
				out = append(out, r)
			}
		}
		if len(out) == before {
			return nil, fmt.Errorf("table yields only %d distinct rectangles at target %d, want %d", len(out), target, n)
		}
	}
	return out, nil
}

// mixConfig is hot-mixed's write stream: inserts, deletes and updates in
// equal shares, one row in ten perturbed far enough to land in the outlier
// partition. Reads are drawn by the harness (Zipf), not by the generator.
func mixConfig() workload.MixConfig {
	return workload.MixConfig{InsertWeight: 1, DeleteWeight: 1, UpdateWeight: 1, OutlierFrac: 0.1}
}

// --- deployments ---

// deployment is one workload's running server processes.
type deployment struct {
	addr   string // HTTP address the clients talk to
	procs  []*proc
	setupS float64 // launch of the first process (or start of the snapshot build) to /healthz OK
	// snapshot deployments only
	snapBytes int64
	// cluster deployments only: Σ MemoryOverhead of the shard engines every
	// node hosts is not exposed by the router, see overheadBytes.
	nodeAddrs []string
}

func (h *harness) logPath(s *spec, what string) string {
	return filepath.Join(h.out, fmt.Sprintf("%s-%s.log", s.Name, what))
}

// launch cold-starts the spec's servers and waits until they answer.
func (h *harness) launch(s *spec) (*deployment, error) {
	d := &deployment{}
	fail := func(err error) (*deployment, error) {
		children.stopProcs(d.procs)
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	d.addr = addr
	const startTimeout = 120 * time.Second
	t0 := time.Now()
	switch s.Deploy {
	case deployServe:
		args := append([]string{"serve", "-addr", addr, "-dataset", s.Dataset,
			"-rows", strconv.Itoa(s.Rows), "-shards", strconv.Itoa(s.Shards)}, s.Args...)
		p, err := children.start(s.Name, h.bin, h.logPath(s, "serve"), args...)
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, p)
		if err := waitHealthy(p, addr, startTimeout); err != nil {
			return fail(err)
		}

	case deploySnapshot:
		path := filepath.Join(h.out, s.Name+".v3")
		if _, _, err := buildSnapshot(s, path); err != nil {
			return fail(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return fail(err)
		}
		d.snapBytes = fi.Size()
		args := append([]string{"serve", "-addr", addr, "-in", path}, s.Args...)
		p, err := children.start(s.Name, h.bin, h.logPath(s, "serve"), args...)
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, p)
		if err := waitHealthy(p, addr, startTimeout); err != nil {
			return fail(err)
		}

	case deployCluster:
		nodes, err := balancedNodeAddrs(s.Shards)
		if err != nil {
			return fail(err)
		}
		d.nodeAddrs = nodes
		peers := nodes[0] + "," + nodes[1]
		for i, na := range nodes {
			p, err := children.start(fmt.Sprintf("%s-node%d", s.Name, i), h.bin, h.logPath(s, fmt.Sprintf("node%d", i)),
				"node", "-addr", na, "-peers", peers, "-dataset", s.Dataset, "-rows", strconv.Itoa(s.Rows),
				"-shards", strconv.Itoa(s.Shards), "-replication", "2", "-local-shards", "2")
			if err != nil {
				return fail(err)
			}
			d.procs = append(d.procs, p)
		}
		for i, na := range nodes {
			if err := waitListening(d.procs[i], na, startTimeout); err != nil {
				return fail(err)
			}
		}
		p, err := children.start(s.Name+"-router", h.bin, h.logPath(s, "router"),
			append([]string{"router", "-addr", addr, "-nodes", peers, "-shards", strconv.Itoa(s.Shards), "-replication", "2"}, s.Args...)...)
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, p)
		if err := waitHealthy(p, addr, startTimeout); err != nil {
			return fail(err)
		}
	}
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// snapshotTimes splits a snapshot build for the traced run.
type snapshotTimes struct{ build, encode time.Duration }

// buildSnapshot builds the spec's sharded index the way coaxserve does at
// start-up (streaming Builder over the synthetic source) and writes it as a
// compressed v3 snapshot.
func buildSnapshot(s *spec, path string) (*coax.ShardedIndex, snapshotTimes, error) {
	var src coax.RowSource
	if s.Dataset == "airline" {
		src = coax.NewAirlineSource(coax.DefaultAirlineConfig(s.Rows), 0)
	} else {
		src = coax.NewOSMSource(coax.DefaultOSMConfig(s.Rows), 0)
	}
	so := coax.DefaultShardOptions()
	so.NumShards = s.Shards
	t0 := time.Now()
	idx, err := coax.NewBuilder(coax.ColumnsSchema(src.Columns()), coax.DefaultOptions()).BuildSharded(src, so)
	if err != nil {
		return nil, snapshotTimes{}, err
	}
	t1 := time.Now()
	if err := coax.SaveShardedFileV3(path, idx, true); err != nil {
		return nil, snapshotTimes{}, err
	}
	return idx, snapshotTimes{build: t1.Sub(t0), encode: time.Since(t1)}, nil
}

// balancedNodeAddrs picks two ephemeral node addresses whose consistent-hash
// placement makes each node the first replica of exactly half the global
// shards. Placement hashes the addresses, so unchecked ephemeral ports
// would hand one node anything from 2 to 6 of 8 primaries and the split,
// not the code, would set the latency.
func balancedNodeAddrs(shards int) ([]string, error) {
	for range 200 {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		b, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if a == b {
			continue
		}
		ring, err := cluster.NewRing([]string{a, b}, 0)
		if err != nil {
			return nil, err
		}
		first := 0
		for _, reps := range ring.Placement(shards, 2) {
			if reps[0] == a {
				first++
			}
		}
		if first*2 == shards {
			return []string{a, b}, nil
		}
	}
	return nil, fmt.Errorf("no balanced placement found for %d shards", shards)
}
