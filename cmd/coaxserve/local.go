package main

// The serve subcommand and its backend: an in-process sharded index, opened
// from a snapshot or built at startup, with the maintenance machinery only a
// local engine has — the compactor and POST /compact, the slow-query log,
// the index-health gauges, and corrupt-page detection on a mapped snapshot.

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/obs"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	th := lifecycle.DefaultThresholds()
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		in      = fs.String("in", "", "serve from this v3 snapshot (sharded or single-index), memory-mapped")
		ds      = fs.String("dataset", "osm", "synthetic dataset when -in is empty: osm|airline")
		rows    = fs.Int("rows", 500000, "synthetic dataset size")
		csvPath = fs.String("csv", "", "build the startup index from a CSV file ('-': stdin) instead of a synthetic dataset")
		sample  = fs.Int("sample", 0, "streaming startup build: detect soft FDs on this many sampled rows and stream chunks straight to the shard builders (0: materialize first)")
		shards  = fs.Int("shards", 0, "shard count (0: one per CPU)")
		workers = fs.Int("workers", 0, "query fan-out workers (0: one per CPU)")
		save    = fs.String("save", "", "persist the index as an uncompressed v3 snapshot before serving (mutations made while serving are not saved)")
		sweep   = fs.Duration("compact-interval", 30*time.Second, "background compactor poll interval (0 disables self-healing; /compact still works)")

		debugAddr = fs.String("debug-addr", "", "serve pprof/expvar/metrics on this extra address (empty: disabled)")
		slowThr   = fs.Duration("slowlog-threshold", 0, "log queries slower than this to /debug/slowlog with their EXPLAIN (0 disables)")
		slowSize  = fs.Int("slowlog-size", 128, "slow-query ring-buffer capacity")
	)
	tier := tierFlags(fs)
	fs.Float64Var(&th.MaxOutlierRatio, "max-outlier-ratio", th.MaxOutlierRatio, "outlier fraction marking a shard stale")
	fs.Float64Var(&th.MinOutlierGain, "min-outlier-gain", th.MinOutlierGain, "required outlier-ratio growth over the build-time baseline (guards against rebuild loops; 0 disables)")
	fs.Float64Var(&th.MaxTombstoneRatio, "max-tombstone-ratio", th.MaxTombstoneRatio, "tombstone fraction marking a shard stale")
	fs.Float64Var(&th.MaxResidualDrift, "max-residual-drift", th.MaxResidualDrift, "normalised model-residual drift marking a shard stale")
	fs.Int64Var(&th.MinMutations, "min-mutations", th.MinMutations, "mutations required before staleness is evaluated")
	fs.Parse(args)

	idx, snap, err := openIndex(*in, *ds, *csvPath, *rows, *shards, *workers, *sample)
	if err != nil {
		return err
	}
	if *save != "" {
		if err := coax.SaveShardedFileV3(*save, idx, false); err != nil {
			return fmt.Errorf("saving %s: %w", *save, err)
		}
		fmt.Printf("saved v3 snapshot to %s\n", *save)
	}

	be := newLocalBackend(idx, snap, th, *sweep)
	if *sweep > 0 {
		if err := be.compactor.Start(); err != nil {
			return err
		}
		defer be.compactor.Stop()
	}
	if *slowThr > 0 {
		be.slowlog = newSlowLog(*slowThr, *slowSize)
	}

	bst := idx.BuildStats()
	fmt.Printf("serving %d rows × %d dims on %d %s shard(s) at %s (compactor: %v)\n",
		bst.Rows, bst.Dims, bst.Shards, bst.Partition, *addr, *sweep)

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           newDebugMux(be),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "debug endpoints (pprof, expvar, metrics) at %s\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			}
		}()
		defer dbg.Close()
	}
	return tier(be).listenAndServe(*addr)
}

// openSnapshot opens the v3 snapshot at path for serving, memory-mapped
// (an aligned heap read where mmap is unavailable), a single-index file as
// one shard; the index's fan-out pool is sized to workers. The returned
// Snapshot owns the mapping and must stay referenced for the life of the
// server. A v1/v2 file fails here, with an error naming coaxstore convert.
func openSnapshot(in string, workers int) (*coax.Index, *coax.Snapshot, error) {
	sn, err := coax.OpenFile(in)
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s: %w", in, err)
	}
	idx, err := sn.Serving(workers)
	if err != nil {
		return nil, nil, err
	}
	how := "memory-mapped"
	if !sn.Mapped() {
		how = "aligned heap read (mmap unavailable)"
	}
	fmt.Fprintf(os.Stderr, "opened %s as format v3: %s\n", in, how)
	return idx, sn, nil
}

// openIndex opens a snapshot (a single-index file as one shard) or builds
// an index at startup — from a CSV file/stdin or a synthetic generator,
// streamed straight into the per-shard builders when -sample is set. The
// Snapshot is nil for an index built at startup.
func openIndex(in, ds, csvPath string, rows, shards, workers, sample int) (*coax.Index, *coax.Snapshot, error) {
	if in != "" {
		return openSnapshot(in, workers)
	}

	var (
		src      coax.RowSource
		closeSrc = func() error { return nil }
	)
	switch {
	case csvPath == "-" && sample > 0:
		// A sampled build over raw stdin would train detection, grid
		// boundaries, AND the range-shard cut points on a stream prefix —
		// on ordered input (ids, timestamps) the cuts collapse and one
		// shard swallows the tail. Spill stdin to a temp file so the
		// two-pass reservoir samples uniformly, exactly as coaxstore does.
		fileSrc, n, err := coax.SpillCSV(bufio.NewReaderSize(os.Stdin, 1<<20), 0)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "spilled %.1f MiB of stdin to a temp file for two-pass sampling\n", float64(n)/(1<<20))
		src, closeSrc = fileSrc, fileSrc.Close
	case csvPath == "-":
		csvSrc, err := coax.NewCSVSource(bufio.NewReaderSize(os.Stdin, 1<<20), 0)
		if err != nil {
			return nil, nil, err
		}
		src = csvSrc
	case csvPath != "":
		fileSrc, err := coax.OpenCSVFile(csvPath, 0)
		if err != nil {
			return nil, nil, err
		}
		src, closeSrc = fileSrc, fileSrc.Close
	case ds == "osm":
		src = coax.NewOSMSource(coax.DefaultOSMConfig(rows), 0)
	case ds == "airline":
		src = coax.NewAirlineSource(coax.DefaultAirlineConfig(rows), 0)
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want osm or airline)", ds)
	}
	defer closeSrc()

	so := coax.DefaultShardOptions()
	so.NumShards = shards
	so.Workers = workers
	b := coax.NewBuilder(coax.ColumnsSchema(src.Columns()), coax.DefaultOptions())
	if sample > 0 {
		b.SampleSize(sample)
	}
	t0 := time.Now()
	idx, err := b.BuildSharded(src, so)
	if err != nil {
		return nil, nil, err
	}
	mode := "materialized"
	if sample > 0 {
		mode = fmt.Sprintf("streaming, sample %d", sample)
	}
	fmt.Fprintf(os.Stderr, "built %d rows on %d shards in %v (%s)\n",
		idx.Len(), idx.NumShards(), time.Since(t0).Round(time.Millisecond), mode)
	return idx, nil, nil
}

func makeTable(ds string, rows int) (*coax.Table, error) {
	switch ds {
	case "osm":
		return coax.GenerateOSM(coax.DefaultOSMConfig(rows)), nil
	case "airline":
		return coax.GenerateAirline(coax.DefaultAirlineConfig(rows)), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want osm or airline)", ds)
	}
}

// localBackend serves from an in-process index. The embedded index supplies
// the engine half of backend (versions, schema, mutations).
type localBackend struct {
	*coax.Index
	// snap owns the mapping of the snapshot and latches its lazily detected
	// page corruption; nil when the index was built at startup.
	snap      *coax.Snapshot
	compactor *lifecycle.Compactor
	th        lifecycle.Thresholds
	slowlog   *slowLog // nil: slow-query logging disabled
}

// newLocalBackend wraps idx with a compactor polling every sweep (not yet
// started) and no slowlog — the shape tests use as is.
func newLocalBackend(idx *coax.Index, snap *coax.Snapshot, th lifecycle.Thresholds, sweep time.Duration) *localBackend {
	return &localBackend{
		Index:     idx,
		snap:      snap,
		compactor: lifecycle.NewCompactor(idx, th, sweep),
		th:        th,
	}
}

func (l *localBackend) liveRows() int64 { return int64(l.Len()) }

// pageErr reports a corrupt page met while reading a mapped snapshot. The
// scan path skips such a page, so every execution — query or mutation —
// checks this before its answer can reach a client or the cache; the error
// is sticky, and from then on the server refuses to answer rather than
// answer short.
func (l *localBackend) pageErr() error {
	if l.snap == nil {
		return nil
	}
	if err := l.snap.PageErr(); err != nil {
		snapshotPageErrors.Inc()
		return fmt.Errorf("snapshot page corrupt: %w", err)
	}
	return nil
}

// Mutations hold to the same rule as reads. Delete and Update find their row
// by reading its page, and a page that no longer reads holds no match: the
// engine would say "not found" about a row that is there. So the latch is
// consulted before the engine is touched — once it is set nothing more is
// applied — and again before the ack, where it outranks whatever the engine
// made of the page it could not read.
func (l *localBackend) mutate(apply func() error) error {
	if err := l.pageErr(); err != nil {
		return err
	}
	err := apply()
	if perr := l.pageErr(); perr != nil {
		return perr
	}
	return err
}

func (l *localBackend) Insert(row []float64) error {
	return l.mutate(func() error { return l.Index.Insert(row) })
}

func (l *localBackend) Delete(row []float64) error {
	return l.mutate(func() error { return l.Index.Delete(row) })
}

func (l *localBackend) Update(old, new []float64) error {
	return l.mutate(func() error { return l.Index.Update(old, new) })
}

// runRows executes through the v2 engine as a fold (coax.Query.Head): ctx
// cancels an in-flight fan-out when the client disconnects. When the
// slow-query log is armed, every query runs with EXPLAIN so a slow one can
// be logged with its full execution report; the report only reaches the
// caller that asked for it.
func (l *localBackend) runRows(ctx context.Context, r coax.Rect, keep int, early, explain bool) (*coax.HeadResult, error) {
	q := coax.FromRect(r).WithContext(ctx)
	if explain || l.slowlog != nil {
		q.WithExplain()
	}
	if early {
		q.Limit(keep)
	}
	res, err := q.Head(l.Index, keep)
	if err != nil {
		return nil, err
	}
	if err := l.pageErr(); err != nil {
		return nil, err
	}
	l.slowlog.observe(res.Explain)
	if !explain {
		res.Explain = nil
	}
	return res, nil
}

// runAgg executes through the pushdown engine, like runRows.
func (l *localBackend) runAgg(ctx context.Context, r coax.Rect, spec index.AggSpec, explain bool) (*coax.AggResult, error) {
	q := coax.FromRect(r).WithContext(ctx)
	if spec.Group >= 0 {
		q.GroupByDim(spec.Group)
	}
	if explain || l.slowlog != nil {
		q.WithExplain()
	}
	agg := coax.CountRows()
	switch spec.Op {
	case index.AggSum:
		agg = coax.SumDim(spec.Col)
	case index.AggMin:
		agg = coax.MinDim(spec.Col)
	case index.AggMax:
		agg = coax.MaxDim(spec.Col)
	case index.AggAvg:
		agg = coax.AvgDim(spec.Col)
	}
	res, err := q.Aggregate(l.Index, agg)
	if err != nil {
		return nil, err
	}
	if err := l.pageErr(); err != nil {
		return nil, err
	}
	l.slowlog.observe(res.Explain)
	if !explain {
		res.Explain = nil
	}
	return res, nil
}

// runBatch is one amortised fan-out for the whole batch, its pages in
// (query, shard) order.
func (l *localBackend) runBatch(ctx context.Context, rects []coax.Rect, keep int) ([]*coax.HeadResult, error) {
	states, complete := l.ExecRows(rects, index.Spec{Ctx: ctx}, index.RowsState{Keep: keep}, nil)
	if err := l.pageErr(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pages := make([]*coax.HeadResult, len(states))
	for i := range states {
		pages[i] = headOf(&states[i], complete)
	}
	return pages, nil
}

type statsResponse struct {
	Rows            int    `json:"rows"`
	Dims            int    `json:"dims"`
	Shards          int    `json:"shards"`
	Partition       string `json:"partition"`
	RangeColumn     int    `json:"range_column"`
	RowsPerShard    []int  `json:"rows_per_shard"`
	MemoryOverheadB int64  `json:"memory_overhead_bytes"`

	// Index-health signals: aggregated lifecycle counters (outlier ratio,
	// tombstone ratio, drift, mutation counts), the per-shard rebuild
	// epochs, and whether the engine is stale under the serving thresholds
	// — what an operator watches to see drift and self-healing happen.
	Lifecycle    lifecycle.Stats        `json:"lifecycle"`
	ShardEpochs  []uint64               `json:"shard_epochs"`
	Stale        bool                   `json:"stale"`
	StaleReasons []string               `json:"stale_reasons,omitempty"`
	LastSweep    *lifecycle.SweepResult `json:"last_sweep,omitempty"`

	tierStats
}

func (l *localBackend) stats(tier tierStats) any {
	bst := l.BuildStats()
	// One per-shard stats pass serves both views: the aggregate is
	// merged from it rather than recomputed by LifecycleStats (which
	// would take every shard lock a second time).
	per := l.ShardLifecycleStats()
	resp := statsResponse{
		Rows:            bst.Rows,
		Dims:            bst.Dims,
		Shards:          bst.Shards,
		Partition:       bst.Partition,
		RangeColumn:     bst.RangeColumn,
		RowsPerShard:    bst.RowsPerShard,
		MemoryOverheadB: bst.MemoryOverheadB,
		Lifecycle:       lifecycle.Merge(per),
		ShardEpochs:     make([]uint64, len(per)),
		tierStats:       tier,
	}
	// Staleness is a per-shard property (that is what the compactor
	// rebuilds); aggregating first would let one badly drifted shard
	// hide behind healthy neighbours and report stale=false while
	// epochs visibly advance.
	for i, p := range per {
		resp.ShardEpochs[i] = p.Epoch
		if s, rs := p.Stale(l.th); s {
			resp.Stale = true
			for _, r := range rs {
				resp.StaleReasons = append(resp.StaleReasons, fmt.Sprintf("shard %d: %s", i, r))
			}
		}
	}
	if last := l.compactor.Last(); !last.At.IsZero() {
		resp.LastSweep = &last
	}
	return resp
}

// healthzResponse is the verbose /healthz body. SnapshotVersion is always
// 3, the one snapshot format the server reads and writes.
type healthzResponse struct {
	Status          string  `json:"status"`
	Epoch           uint64  `json:"epoch"`
	StaleShards     int     `json:"stale_shards"`
	SnapshotVersion uint32  `json:"snapshot_version"`
	Rows            int     `json:"rows"`
	Shards          int     `json:"shards"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
}

func (l *localBackend) health(verbose bool, uptime time.Duration) (int, any) {
	code, status := http.StatusOK, "ok"
	if l.snap != nil && l.snap.PageErr() != nil {
		code, status = http.StatusServiceUnavailable, "corrupt"
	}
	if !verbose {
		return code, map[string]string{"status": status}
	}
	return code, healthzResponse{
		Status:          status,
		Epoch:           l.LifecycleStats().Epoch,
		StaleShards:     len(l.StaleShards(l.th)),
		SnapshotVersion: coax.SnapshotVersionV3,
		Rows:            l.Len(),
		Shards:          l.NumShards(),
		UptimeSeconds:   uptime.Seconds(),
	}
}

type compactResponse struct {
	Forced  bool     `json:"forced"`
	Stale   []int    `json:"stale,omitempty"`
	Rebuilt []int    `json:"rebuilt,omitempty"`
	Errors  []string `json:"errors,omitempty"`
	Epochs  []uint64 `json:"epochs"`
}

// mount adds what only a local engine serves: /compact and the slow-query
// log. It also points the index-health gauges at this backend.
func (l *localBackend) mount(mux *http.ServeMux) {
	l.registerGauges()
	mux.HandleFunc("GET /debug/slowlog", l.serveSlowlog)

	// /compact rebuilds stale shards now (?force=true rebuilds all). The
	// rebuilds run online — queries keep being served from the old epochs
	// while replacements are built.
	mux.HandleFunc("POST /compact", func(w http.ResponseWriter, req *http.Request) {
		resp := compactResponse{Forced: req.URL.Query().Get("force") == "true"}
		if resp.Forced {
			// Route through the compactor so a forced rebuild serialises
			// with any in-flight periodic sweep instead of colliding with
			// it shard by shard.
			sweep, _ := l.compactor.ForceSweep()
			resp.Rebuilt, resp.Errors = sweep.Rebuilt, sweep.Errs
		} else {
			sweep := l.compactor.Kick()
			resp.Stale, resp.Rebuilt, resp.Errors = sweep.Stale, sweep.Rebuilt, sweep.Errs
		}
		resp.Epochs = l.Epochs()
		writeJSON(w, http.StatusOK, resp)
	})
}

func (l *localBackend) serveSlowlog(w http.ResponseWriter, _ *http.Request) {
	if l.slowlog == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("slow-query log disabled; start with -slowlog-threshold"))
		return
	}
	entries, total := l.slowlog.entries()
	writeJSON(w, http.StatusOK, slowlogResponse{
		ThresholdMS: float64(l.slowlog.threshold) / float64(time.Millisecond),
		Total:       total,
		Entries:     entries,
	})
}

// registerGauges (re-)registers the callback-backed index-health gauges
// over l's index. Re-registration replaces the callbacks, so the most
// recently mounted backend (the last test server) is the one the gauges
// describe.
func (l *localBackend) registerGauges() {
	obs.NewGaugeFunc("coax_live_rows", "Live rows across all shards.",
		func() float64 { return float64(l.Len()) })
	obs.NewGaugeFunc("coax_outlier_ratio", "Fraction of live rows in the outlier partitions.",
		func() float64 { return l.LifecycleStats().OutlierRatio })
	obs.NewGaugeFunc("coax_tombstone_ratio", "Fraction of stored rows that are tombstones.",
		func() float64 { return l.LifecycleStats().TombstoneRatio })
	obs.NewGaugeFunc("coax_index_epoch", "Sum of shard rebuild epochs (advances on every rebuild).",
		func() float64 { return float64(l.LifecycleStats().Epoch) })
	obs.NewGaugeFunc("coax_memory_overhead_bytes", "Index directory overhead beyond row payload.",
		func() float64 { return float64(l.MemoryOverhead()) })
	obs.NewGaugeFunc("coax_primary_pages", "Grid pages across all primary partitions.",
		func() float64 { return float64(l.BuildStats().PrimaryCells) })
	obs.NewGaugeFunc("coax_outlier_pages", "Grid pages across all outlier partitions (0 for R-tree outliers).",
		func() float64 { return float64(l.BuildStats().OutlierCells) })
	obs.NewGaugeFunc("coax_stale_shards", "Shards currently stale under the serving thresholds.",
		func() float64 { return float64(len(l.StaleShards(l.th))) })
}
