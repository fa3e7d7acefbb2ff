// Ingestion & Build API: a streaming, schema-aware Builder, the one way an
// Index is built.
//
// The Builder consumes a RowSource — chunks of rows from a CSV stream, an
// in-memory table (NewTableSource), or a generator — and, when a sample
// size is set, runs the paper's pipeline in two bounded-memory phases:
// reservoir-sample the stream, detect soft FDs and fit predictors on the
// sample, then stream every row exactly once into its final primary/outlier
// placement. Inputs no larger than the sample are materialized and placed
// the same way with the table as its own sample, so small builds stay
// bit-for-bit identical to a full-scan build.
//
//	schema, _ := coax.NewSchema(
//		coax.Float("distance"), coax.Float("elapsed"), coax.Float("airtime"),
//		coax.Float("deptime"), coax.Float("arrtime"), coax.Float("schedarr"),
//		coax.Int("dayofweek"), coax.Categorical("carrier"),
//	)
//	src, _ := coax.OpenCSVFile("flights.csv", 0)
//	defer src.Close()
//	idx, err := coax.NewBuilder(schema, coax.DefaultOptions()).
//		SampleSize(50_000).
//		Build(src)
package coax

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/stats"
)

// ColumnKind declares what a column holds, steering detection: categorical
// codes carry no orderable structure for a soft FD to exploit and are
// excluded from dependency candidates automatically.
type ColumnKind int

const (
	// KindFloat is a continuous numeric column — the default, FD-eligible.
	KindFloat ColumnKind = iota
	// KindInt is an integer-valued column (ids, counts, timestamps);
	// FD-eligible — integer sequences are exactly the id→timestamp
	// dependencies the paper exploits.
	KindInt
	// KindCategorical is a category code (carrier, day-of-week): excluded
	// from soft-FD detection, indexed like any other dimension.
	KindCategorical
)

// SchemaColumn is one typed column declaration.
type SchemaColumn struct {
	Name string
	Kind ColumnKind
}

// Float declares a continuous numeric column.
func Float(name string) SchemaColumn { return SchemaColumn{Name: name, Kind: KindFloat} }

// Int declares an integer-valued column.
func Int(name string) SchemaColumn { return SchemaColumn{Name: name, Kind: KindInt} }

// Categorical declares a category-code column, excluded from soft-FD
// detection.
func Categorical(name string) SchemaColumn { return SchemaColumn{Name: name, Kind: KindCategorical} }

// Schema is an ordered set of typed column declarations.
type Schema struct {
	cols []SchemaColumn
}

// NewSchema validates the declarations: at least one column, every name
// non-empty and unique.
func NewSchema(cols ...SchemaColumn) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("coax: schema needs at least one column")
	}
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("coax: schema column %d has an empty name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("coax: schema column %q declared twice", c.Name)
		}
		seen[c.Name] = true
	}
	return &Schema{cols: append([]SchemaColumn(nil), cols...)}, nil
}

// TableSchema derives an all-Float schema from a table's column names —
// the bridge for building an in-memory table. Unlike NewSchema it accepts
// empty or duplicate names.
func TableSchema(t *Table) *Schema {
	cols := make([]SchemaColumn, t.Dims())
	for i := range cols {
		if i < len(t.Cols) {
			cols[i].Name = t.Cols[i]
		}
	}
	return &Schema{cols: cols}
}

// ColumnsSchema derives an all-Float schema from raw column names, with
// TableSchema's leniency — the bridge for tools that stream from sources
// (CSV headers) whose names they do not control.
func ColumnsSchema(names []string) *Schema {
	cols := make([]SchemaColumn, len(names))
	for i, n := range names {
		cols[i].Name = n
	}
	return &Schema{cols: cols}
}

// Names returns the declared column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// Len reports the number of declared columns.
func (s *Schema) Len() int { return len(s.cols) }

// categoricalDims lists the positions declared KindCategorical.
func (s *Schema) categoricalDims() []int {
	var out []int
	for i, c := range s.cols {
		if c.Kind == KindCategorical {
			out = append(out, i)
		}
	}
	return out
}

// Streaming source surface, re-exported from internal/dataset.

// RowSource is the streaming ingestion contract: named columns plus a
// sequence of row chunks ending in io.EOF. Chunk buffers may be reused
// between calls; see Chunk. Sources may additionally implement SizeHint()
// int (expected total rows, -1 unknown) and Reset() error (replayable —
// lets the sampled build stream twice instead of buffering a prefix).
type RowSource = dataset.RowSource

// Chunk is one block of rows from a RowSource; Data is row-major and valid
// only until the next call to Next.
type Chunk = dataset.Chunk

// NewTableSource streams an in-memory table in chunks without copying.
// chunkRows ≤ 0 picks the default granularity.
func NewTableSource(t *Table, chunkRows int) RowSource { return dataset.NewTableSource(t, chunkRows) }

// DefaultChunkRows is the chunk granularity sources use when a
// constructor's chunkRows argument is ≤ 0.
const DefaultChunkRows = dataset.DefaultChunkRows

// NewCSVSource streams CSV with a header row from r, parsing chunkRows
// rows at a time; every field must parse as float64.
func NewCSVSource(r io.Reader, chunkRows int) (RowSource, error) {
	s, err := dataset.NewCSVSource(r, chunkRows)
	if err != nil {
		return nil, err // a typed-nil *CSVSource must not leak into the interface
	}
	return s, nil
}

// CSVFileSource is a replayable, size-estimating CSV source over a file.
type CSVFileSource = dataset.CSVSource

// OpenCSVFile opens path as a replayable CSV source whose row-count
// estimate sharpens as it is read; the caller owns Close.
func OpenCSVFile(path string, chunkRows int) (*CSVFileSource, error) {
	return dataset.OpenCSVFile(path, chunkRows)
}

// SpillCSV copies r (typically a pipe) to a temporary CSV file and opens
// it as a replayable source whose Close also removes the file, so a
// sampled build can reservoir-sample the whole input instead of training
// on a biased prefix. Returns the byte count spilled.
func SpillCSV(r io.Reader, chunkRows int) (*CSVFileSource, int64, error) {
	return dataset.SpillCSV(r, chunkRows)
}

// NewOSMSource streams the synthetic OSM workload without materializing it.
func NewOSMSource(cfg OSMConfig, chunkRows int) RowSource {
	return dataset.NewOSMSource(cfg, chunkRows)
}

// NewAirlineSource streams the synthetic airline workload without
// materializing it.
func NewAirlineSource(cfg AirlineConfig, chunkRows int) RowSource {
	return dataset.NewAirlineSource(cfg, chunkRows)
}

// BuildProgress is one progress report from a streaming build.
type BuildProgress struct {
	// Phase is "sample" (drawing the row sample), "detect" (fitting soft
	// FDs), "place" (streaming rows into the index), or "finish"
	// (assembling structures).
	Phase string
	// Rows processed so far in this phase.
	Rows int
	// Total expected rows, or -1 when the source cannot estimate it.
	Total int
}

// Builder is the build surface. Configure it fluently, then call Build or
// BuildSharded with a RowSource. A Builder is single-use per Build call
// but carries no per-build state, so it may be reused sequentially.
type Builder struct {
	schema     *Schema
	opt        Options
	sampleSize int
	progress   func(BuildProgress)
	// track is the per-build metrics observer. Build/BuildSharded set it on
	// a private copy of the builder, so the caller's Builder stays free of
	// per-build state and sequential reuse keeps working.
	track *buildObs
}

// NewBuilder creates a builder over schema. Categorical columns are merged
// into the detector's exclusion list.
func NewBuilder(schema *Schema, opt Options) *Builder {
	return &Builder{schema: schema, opt: opt}
}

// SampleSize sets the row-sample budget for soft-FD detection and grid
// boundary estimation. 0 (the default) disables sampling: the whole input
// is materialized and is its own sample. With n > 0, inputs of at most n
// rows are still their own sample — sampling only engages, and memory
// stays bounded, once the input outgrows the sample.
func (b *Builder) SampleSize(n int) *Builder { b.sampleSize = n; return b }

// Progress installs a callback invoked once per chunk and phase change on
// the building goroutine; keep it cheap.
func (b *Builder) Progress(fn func(BuildProgress)) *Builder { b.progress = fn; return b }

// report invokes the progress callback, if any, and feeds the build-plane
// metrics observer.
func (b *Builder) report(phase string, rows, total int) {
	b.track.observe(phase)
	if b.progress != nil {
		b.progress(BuildProgress{Phase: phase, Rows: rows, Total: total})
	}
}

// instrumented returns the builder to run a build with: a private copy
// carrying a fresh metrics observer when instrumentation is on, the
// receiver itself otherwise.
func (b *Builder) instrumented() *Builder {
	if !obs.On() {
		return b
	}
	cp := *b
	cp.track = &buildObs{start: time.Now()}
	return &cp
}

// buildObs accumulates one build's metrics: per-phase durations (cut at
// phase transitions seen by report), a periodically sampled peak-heap
// reading during the place phase, and the end-to-end totals flushed by
// finish. Builds run on one goroutine, so no locking is needed.
type buildObs struct {
	start      time.Time
	phase      string
	phaseStart time.Time
	peakHeap   uint64
	chunks     int
}

// heapSampleEvery is how many place-phase progress reports (chunks) pass
// between runtime.ReadMemStats samples — the reading briefly stops the
// world, so it must not run per chunk.
const heapSampleEvery = 16

func (o *buildObs) observe(phase string) {
	if o == nil {
		return
	}
	now := time.Now()
	if phase != o.phase {
		o.flushPhase(now)
		o.phase, o.phaseStart = phase, now
		o.chunks = 0
	}
	o.chunks++
	if phase == "place" && o.chunks%heapSampleEvery == 1 {
		o.sampleHeap()
	}
}

func (o *buildObs) flushPhase(now time.Time) {
	if o.phase == "" {
		return
	}
	if h := obs.BuildPhase(o.phase); h != nil {
		h.Observe(now.Sub(o.phaseStart).Seconds())
	}
}

func (o *buildObs) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > o.peakHeap {
		o.peakHeap = ms.HeapAlloc
	}
}

// finish flushes the observer after a successful build. sampleLen/-Budget
// describe the sampling reservoir (budget ≤ 0: the build did not sample).
func (o *buildObs) finish(rows, sampleLen, sampleBudget int) {
	if o == nil {
		return
	}
	o.sampleHeap()
	o.flushPhase(time.Now())
	o.phase = ""
	obs.Builds.Inc()
	obs.BuildRows.Add(int64(rows))
	obs.BuildSeconds.Observe(time.Since(o.start).Seconds())
	if sampleBudget > 0 {
		fill := float64(sampleLen) / float64(sampleBudget)
		if fill > 1 {
			fill = 1
		}
		obs.BuildReservoir.Set(fill)
	}
	obs.BuildPeakHeap.Set(float64(o.peakHeap))
}

// prepare validates the source against the schema and returns the
// effective options (categorical exclusions merged) and column names.
func (b *Builder) prepare(src RowSource) (Options, []string, error) {
	opt := b.opt
	if b.schema == nil {
		return opt, nil, fmt.Errorf("coax: builder has no schema")
	}
	names := b.schema.Names()
	got := src.Columns()
	if len(got) != len(names) {
		return opt, nil, fmt.Errorf("coax: source has %d columns, schema declares %d", len(got), len(names))
	}
	for i, want := range names {
		if want != "" && got[i] != "" && got[i] != want {
			return opt, nil, fmt.Errorf("coax: source column %d is %q, schema declares %q", i, got[i], want)
		}
	}
	if cats := b.schema.categoricalDims(); len(cats) > 0 {
		merged := append([]int(nil), opt.SoftFD.ExcludeCols...)
		have := make(map[int]bool, len(merged))
		for _, c := range merged {
			have[c] = true
		}
		for _, c := range cats {
			if !have[c] {
				merged = append(merged, c)
			}
		}
		opt.SoftFD.ExcludeCols = merged
	}
	return opt, names, nil
}

// sampled holds the outcome of the sampling phase of a streaming build.
type sampled struct {
	sample *Table        // the row sample (or the entire small input)
	fd     softfd.Result // dependencies detected on the sample
	total  int           // rows seen in the sampling pass, -1 in prefix mode
	whole  bool          // sample IS the whole input: build over it as its own sample
	prefix *Table        // prefix mode: buffered rows that must be replayed
}

// samplePhase draws the row sample. Replayable sources get a true uniform
// reservoir over the full stream (then rewind); one-shot sources get a
// buffered prefix — biased if the stream is ordered, but the only option
// without a second pass, and exact whenever the input fits the sample.
func (b *Builder) samplePhase(src RowSource, opt Options, names []string) (*sampled, error) {
	k := b.sampleSize
	dims := len(names)

	if dataset.CanReset(src) {
		resetter := src.(dataset.Resetter)
		rng := rand.New(rand.NewSource(opt.SoftFD.Seed))
		res := stats.NewRowReservoir(k, dims, rng)
		total := 0
		for {
			c, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if err := dataset.CheckFinite(names, c.Data, total); err != nil {
				return nil, fmt.Errorf("coax: %w", err)
			}
			for i := 0; i < c.Rows(); i++ {
				res.Push(c.Row(i))
			}
			total += c.Rows()
			b.report("sample", total, dataset.SizeHint(src))
		}
		sample := dataset.View(names, res.Rows())
		if !res.Saturated() {
			// The reservoir holds every row in arrival order: the input is
			// small — build over it as its own sample.
			return &sampled{sample: sample, whole: true, total: total}, nil
		}
		if err := resetter.Reset(); err != nil {
			return nil, fmt.Errorf("coax: rewinding source for placement pass: %w", err)
		}
		b.report("detect", 0, total)
		fd, err := softfd.DetectSample(sample, opt.SoftFD)
		if err != nil {
			return nil, fmt.Errorf("coax: soft-FD detection: %w", err)
		}
		return &sampled{sample: sample, fd: fd, total: total}, nil
	}

	// One-shot source: buffer the first k rows (rounded up to a chunk) as
	// both sample and staged prefix.
	prefix := dataset.NewTable(names)
	prefix.Grow(k)
	for prefix.Len() <= k {
		c, err := src.Next()
		if err == io.EOF {
			// Whole input fits the sample budget: it is its own sample.
			return &sampled{sample: prefix, whole: true, total: prefix.Len()}, nil
		}
		if err != nil {
			return nil, err
		}
		if err := dataset.CheckFinite(names, c.Data, prefix.Len()); err != nil {
			return nil, fmt.Errorf("coax: %w", err)
		}
		// Growing by exactly the chunk (a no-op until the k-row capacity
		// runs out) avoids the append-doubling copy that would otherwise
		// hit on the chunk that overflows the sample budget.
		prefix.Grow(c.Rows())
		prefix.Data = append(prefix.Data, c.Data...)
		b.report("sample", prefix.Len(), dataset.SizeHint(src))
	}
	b.report("detect", 0, dataset.SizeHint(src))
	fd, err := softfd.DetectSample(prefix, opt.SoftFD)
	if err != nil {
		return nil, fmt.Errorf("coax: soft-FD detection: %w", err)
	}
	return &sampled{sample: prefix, fd: fd, total: -1, prefix: prefix}, nil
}

// Build constructs a one-shard index from src, whose queries run inline on
// the caller: BuildSharded with ShardOptions{NumShards: 1}.
func (b *Builder) Build(src RowSource) (*Index, error) {
	return b.BuildSharded(src, ShardOptions{NumShards: 1})
}

// BuildSharded constructs an index of so.NumShards shards from src, routing
// chunks to per-shard streaming builders on a worker pool — the whole table
// is never held in one place.
func (b *Builder) BuildSharded(src RowSource, so ShardOptions) (*Index, error) {
	b = b.instrumented()
	opt, names, err := b.prepare(src)
	if err != nil {
		return nil, err
	}
	if b.sampleSize <= 0 {
		t, err := dataset.Materialize(src)
		if err != nil {
			return nil, err
		}
		b.report("place", t.Len(), t.Len())
		idx, err := shard.Build(t, opt, so)
		if err == nil {
			b.track.finish(t.Len(), 0, 0)
		}
		return idx, err
	}

	sp, err := b.samplePhase(src, opt, names)
	if err != nil {
		return nil, err
	}
	if sp.whole {
		b.report("place", sp.sample.Len(), sp.sample.Len())
		idx, err := shard.Build(sp.sample, opt, so)
		if err == nil {
			b.track.finish(sp.sample.Len(), sp.sample.Len(), b.sampleSize)
		}
		return idx, err
	}

	totalHint := sp.total
	if totalHint < 0 {
		totalHint = dataset.SizeHint(src)
	}
	sb, err := shard.NewStreamBuilder(names, sp.fd, sp.sample, opt, so, totalHint)
	if err != nil {
		return nil, err
	}
	if err := b.placePhase(src, sp, sb); err != nil {
		sb.Abandon()
		return nil, err
	}
	b.report("finish", sb.Rows(), sb.Rows())
	idx, err := sb.Finish()
	if err == nil {
		b.track.finish(sb.Rows(), sp.sample.Len(), b.sampleSize)
	}
	return idx, err
}

// placePhase streams the prefix (if any) and the remainder of src into sb
// chunk by chunk (sb re-batches per shard), reporting progress per chunk.
func (b *Builder) placePhase(src RowSource, sp *sampled, sb *shard.StreamBuilder) error {
	if sp.prefix != nil {
		if err := sb.Add(dataset.Chunk{Cols: sp.prefix.Dims(), Data: sp.prefix.Data}); err != nil {
			return err
		}
		b.report("place", sb.Rows(), dataset.SizeHint(src))
	}
	for {
		c, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sb.Add(c); err != nil {
			return err
		}
		b.report("place", sb.Rows(), dataset.SizeHint(src))
	}
}
