// Command coaxstore builds, persists, inspects, and queries COAX indexes
// on disk, so the expensive build (soft-FD detection + index construction)
// runs once while every later process answers queries straight from a
// snapshot.
//
// Usage:
//
//	coaxstore build -dataset osm -rows 1000000 -out osm.coax
//	coaxstore build -csv flights.csv -out flights.coax
//	coaxstore build -csv flights.csv -sample 50000 -out flights.coax   # streaming, bounded memory
//	coaxgen -dataset osm -n 10000000 -stream | coaxstore build -csv - -sample 50000
//	coaxstore convert -in old.coax -out osm.coax -compress   # v1/v2 (or v3) → v3, grid pages compressed
//	coaxstore info -in osm.coax
//	coaxstore info -in osm.coax -metrics   # health gauges, same names as coaxserve /metrics
//	coaxstore query -in osm.coax -min '_,0,40,-75' -max '_,5000,41,-74'
//	coaxstore query -in osm.coax -min '_,60,_,_' -max '_,90,_,_' -limit 5
//	coaxstore explain -in flights.coax -where airtime:60:90
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "coaxstore: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coaxstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `coaxstore — build once, query many times from disk

subcommands:
  build    build a COAX index and save it as a snapshot (format v3,
           uncompressed, served memory-mapped)
  convert  rewrite a snapshot as format v3: a v1/v2 file from an earlier
           release, which nothing else reads, or a v3 file to change
           -compress (grid pages packed columnar)
  info     describe a snapshot file: per-section on-disk vs decoded sizes
           and compression ratios, and index stats; -metrics adds the
           health gauges in Prometheus text form
  query    answer a range/point query from a snapshot
  explain  run a query and report how it executed: soft-FD constraint
           translation, primary/outlier scan split, pages and rows touched

run 'coaxstore <subcommand> -h' for flags`)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		ds      = fs.String("dataset", "osm", "synthetic dataset to generate: osm|airline (ignored with -csv)")
		rows    = fs.Int("rows", 100000, "synthetic dataset size")
		seed    = fs.Int64("seed", 0, "override generator seed (0 keeps the default)")
		csvPath = fs.String("csv", "", "build from a CSV file instead of a synthetic dataset; '-' streams stdin")
		out     = fs.String("out", "index.coax", "snapshot output path")
		cells   = fs.Int("cells", 0, "most primary grid cells per dimension; a column with fewer values gets one cell per value (0 keeps the default)")
		sample  = fs.Int("sample", 0, "streaming build: detect soft FDs on this many sampled rows and stream placement in bounded memory (0: materialize and build exactly)")
		chunk   = fs.Int("chunk", 0, "rows per ingest chunk (0: default)")
		noSpill = fs.Bool("no-spill", false, "sampled stdin builds: keep the one-pass prefix sample instead of spilling stdin to a temp file for an unbiased two-pass reservoir")
		quiet   = fs.Bool("q", false, "suppress progress reporting on stderr")
	)
	fs.Parse(args)

	opt := coax.DefaultOptions()
	if *cells > 0 {
		opt.PrimaryCellsPerDim = *cells
	}

	var (
		src      coax.RowSource
		closeSrc func() error
		err      error
	)
	// A sampled build over stdin would have to train on a stream prefix —
	// badly biased when the input is ordered (ids, timestamps). Spilling
	// stdin to a temporary file first keeps memory bounded, costs one file
	// of disk, and buys a true uniform reservoir over the whole input.
	if *csvPath == "-" && *sample > 0 && !*noSpill {
		src, closeSrc, err = spillStdin(*chunk, *quiet)
	} else {
		src, closeSrc, err = openSource(*csvPath, *ds, *rows, *seed, *chunk)
	}
	if err != nil {
		return err
	}
	defer closeSrc()

	b := coax.NewBuilder(coax.ColumnsSchema(src.Columns()), opt)
	if *sample > 0 {
		b.SampleSize(*sample)
	}
	if !*quiet {
		b.Progress(progressPrinter())
	}

	mw := watchMem()
	t0 := time.Now()
	idx, err := b.Build(src)
	if err != nil {
		return err
	}
	buildDur := time.Since(t0)
	base, peak := mw.Stop()

	t0 = time.Now()
	if err := coax.SaveShardedFileV3(*out, idx, false); err != nil {
		return err
	}
	saveDur := time.Since(t0)
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}

	s := idx.BuildStats()
	mode := "materialized"
	if *sample > 0 {
		mode = fmt.Sprintf("streaming (sample %d)", *sample)
	}
	fmt.Printf("built  %d rows × %d dims in %v (%s)\n", s.Rows, s.Dims, buildDur.Round(time.Millisecond), mode)
	fmt.Printf("groups %d (dependent dims %d), primary ratio %.1f%%, sort dim %d\n",
		len(s.Groups), s.DependentDims, 100*s.PrimaryRatio, s.SortDim)
	fmt.Printf("memory peak heap +%.1f MiB during build", mib(peak-base))
	if hwm := vmHWM(); hwm > 0 {
		fmt.Printf(" (process VmHWM %.1f MiB)", mib(uint64(hwm)))
	}
	fmt.Println()
	fmt.Printf("saved  %s (%d bytes) in %v\n", *out, fi.Size(), saveDur.Round(time.Millisecond))
	return nil
}

// spillStdin routes stdin through coax.SpillCSV so a sampled build can run
// its two-pass reservoir over the whole input instead of training on a
// biased prefix.
func spillStdin(chunk int, quiet bool) (coax.RowSource, func() error, error) {
	src, n, err := coax.SpillCSV(bufio.NewReaderSize(os.Stdin, 1<<20), chunk)
	if err != nil {
		return nil, func() error { return nil }, err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "coaxstore: spilled %.1f MiB of stdin to a temp file for two-pass sampling (-no-spill to stream one-pass)\n",
			float64(n)/(1<<20))
	}
	return src, src.Close, nil
}

// openSource resolves the build input to a streaming RowSource: stdin
// ('-'), a CSV file (replayable, so sampled builds get a true two-pass
// reservoir), or a synthetic generator.
func openSource(csvPath, ds string, rows int, seed int64, chunk int) (coax.RowSource, func() error, error) {
	noop := func() error { return nil }
	switch {
	case csvPath == "-":
		src, err := coax.NewCSVSource(bufio.NewReaderSize(os.Stdin, 1<<20), chunk)
		return src, noop, err
	case csvPath != "":
		src, err := coax.OpenCSVFile(csvPath, chunk)
		if err != nil {
			return nil, noop, err
		}
		return src, src.Close, nil
	}
	switch ds {
	case "osm":
		cfg := coax.DefaultOSMConfig(rows)
		if seed != 0 {
			cfg.Seed = seed
		}
		return coax.NewOSMSource(cfg, chunk), noop, nil
	case "airline":
		cfg := coax.DefaultAirlineConfig(rows)
		if seed != 0 {
			cfg.Seed = seed
		}
		return coax.NewAirlineSource(cfg, chunk), noop, nil
	default:
		return nil, noop, fmt.Errorf("unknown dataset %q (want osm or airline)", ds)
	}
}

// progressPrinter reports build phases to stderr, throttled to one line
// per phase change or half second.
func progressPrinter() func(coax.BuildProgress) {
	var (
		lastPhase string
		lastPrint time.Time
	)
	return func(p coax.BuildProgress) {
		if p.Phase == lastPhase && time.Since(lastPrint) < 500*time.Millisecond {
			return
		}
		lastPhase, lastPrint = p.Phase, time.Now()
		if p.Total > 0 {
			fmt.Fprintf(os.Stderr, "coaxstore: %-7s %d/%d rows\n", p.Phase, p.Rows, p.Total)
		} else {
			fmt.Fprintf(os.Stderr, "coaxstore: %-7s %d rows\n", p.Phase, p.Rows)
		}
	}
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "index.coax", "snapshot path")
	metrics := fs.Bool("metrics", false, "also print the index-health gauges in Prometheus text form, under the same series names coaxserve exports at /metrics")
	verify := fs.Bool("verify", false, "check every section CRC and decode every compressed page before reporting")
	fs.Parse(args)

	t0 := time.Now()
	idx, sn, err := loadIndex(*in)
	if err != nil {
		return err
	}
	defer sn.Close()
	openDur := time.Since(t0)
	if err := frames(*in, *verify); err != nil {
		return err
	}
	how := "mapped"
	if !sn.Mapped() {
		how = "heap fallback"
	}
	fmt.Printf("opened in %v (%s)\n", openDur.Round(time.Microsecond), how)
	s := idx.BuildStats()
	fmt.Printf("  rows %d, dims %d, sort dim %d, %d shard(s) on range column %d\n", s.Rows, s.Dims, s.SortDim, s.Shards, s.RangeColumn)
	fmt.Printf("  primary rows %d (%.1f%%), outlier rows %d\n", s.PrimaryRows, 100*s.PrimaryRatio, s.OutlierRows)
	for _, g := range s.Groups {
		fmt.Printf("  group: predictor col %d → members %v\n", g.Predictor, g.Members)
	}
	layout := "layout"
	if s.Shards > 1 {
		layout = "shard 0's layout"
	}
	if s.PrimaryAxisCells != nil {
		fmt.Printf("  primary grid: %d pages; %s: cells per axis %v on columns %v, sorted on column %d\n",
			s.PrimaryCells, layout, s.PrimaryAxisCells, s.PrimaryGridDims, s.SortDim)
	}
	if s.OutlierCells > 0 {
		fmt.Printf("  outlier grid: %d pages; %s: grid on columns %v, sorted on column %d\n",
			s.OutlierCells, layout, s.OutlierGridDims, s.OutlierSortDim)
	}
	fmt.Printf("  directory overhead: primary %dB, outlier %dB, models %dB\n",
		s.PrimaryOverheadB, s.OutlierOverheadB, s.ModelOverheadB)
	if *metrics {
		fmt.Println()
		writeOfflineMetrics(os.Stdout, idx)
	}
	return nil
}

// frames describes a snapshot's section table, with per-section on-disk vs
// decoded sizes and compression ratios, after checking every section and
// page when verify is set.
func frames(path string, verify bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, err := mmapsnap.Inspect(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: COAX snapshot, format version %d (memory-mapped), %d bytes\n", path, st.Version, st.Bytes)
	printSections := func(indent string, s mmapsnap.Stat) {
		for _, sec := range s.Sections {
			line := fmt.Sprintf("%ssection %q  %10d bytes on disk", indent, sec.ID, sec.Len)
			if sec.Compressed {
				ratio := float64(sec.DecodedBytes) / float64(sec.Len)
				line += fmt.Sprintf("  → %10d decoded  (%.2fx, %d cells)", sec.DecodedBytes, ratio, sec.Cells)
			} else if sec.Cells > 0 {
				line += fmt.Sprintf("  (raw pages, %d cells)", sec.Cells)
			}
			fmt.Println(line)
		}
	}
	printSections("  ", st)
	for i, sh := range st.Shards {
		fmt.Printf("  shard %d:\n", i)
		printSections("    ", sh)
	}
	if verify {
		t0 := time.Now()
		if err := mmapsnap.Verify(data); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		fmt.Printf("verified every section CRC and page in %v\n", time.Since(t0).Round(time.Microsecond))
	}
	return nil
}

// writeOfflineMetrics renders the loaded snapshot's health gauges with the
// exact series names coaxserve exports live, so an offline inspection and a
// /metrics scrape can be compared name for name. A fresh registry keeps
// this scoped to the snapshot at hand.
func writeOfflineMetrics(w io.Writer, idx *coax.Index) {
	reg := obs.NewRegistry()
	life := idx.LifecycleStats()
	reg.Gauge("coax_live_rows", "Live rows across all shards.").Set(float64(idx.Len()))
	reg.Gauge("coax_outlier_ratio", "Fraction of live rows in the outlier partitions.").Set(life.OutlierRatio)
	reg.Gauge("coax_tombstone_ratio", "Fraction of stored rows that are tombstones.").Set(life.TombstoneRatio)
	reg.Gauge("coax_index_epoch", "Sum of shard rebuild epochs (advances on every rebuild).").Set(float64(life.Epoch))
	reg.Gauge("coax_memory_overhead_bytes", "Index directory overhead beyond row payload.").Set(float64(idx.MemoryOverhead()))
	st := idx.BuildStats()
	reg.Gauge("coax_primary_pages", "Grid pages across all primary partitions.").Set(float64(st.PrimaryCells))
	reg.Gauge("coax_outlier_pages", "Grid pages across all outlier partitions.").Set(float64(st.OutlierCells))
	reg.WritePrometheus(w)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		in    = fs.String("in", "index.coax", "snapshot path")
		min   = fs.String("min", "", "comma-separated lower bounds; '_' leaves a dimension unconstrained")
		max   = fs.String("max", "", "comma-separated upper bounds; '_' leaves a dimension unconstrained")
		limit = fs.Int("limit", 0, "print up to this many matching rows (0: count only)")
	)
	fs.Parse(args)

	t0 := time.Now()
	idx, sn, err := loadIndex(*in)
	if err != nil {
		return err
	}
	loadDur := time.Since(t0)

	r := coax.FullRect(idx.Dims())
	if err := fillBounds(r.Min, *min, math.Inf(-1), idx.Dims()); err != nil {
		return fmt.Errorf("-min: %w", err)
	}
	if err := fillBounds(r.Max, *max, math.Inf(1), idx.Dims()); err != nil {
		return fmt.Errorf("-max: %w", err)
	}

	t0 = time.Now()
	keep := *limit
	if keep < 0 {
		keep = 0 // count only, as for 0
	}
	res, err := coax.FromRect(r).Head(idx, keep)
	if err != nil {
		return err
	}
	queryDur := time.Since(t0)
	if err := sn.PageErr(); err != nil {
		return fmt.Errorf("%s: corrupt page touched during query: %w", *in, err)
	}
	for _, row := range res.Rows {
		fmt.Println(formatRow(row))
	}
	fmt.Printf("%d rows matched %v (load %v, query %v)\n",
		res.Count, r, loadDur.Round(time.Microsecond), queryDur.Round(time.Microsecond))
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	var (
		in      = fs.String("in", "index.coax", "snapshot path")
		min     = fs.String("min", "", "comma-separated lower bounds; '_' leaves a dimension unconstrained")
		max     = fs.String("max", "", "comma-separated upper bounds; '_' leaves a dimension unconstrained")
		wheres  = fs.String("where", "", "comma-separated name-based predicates col:lo:hi ('_' for an open side), e.g. airtime:60:90")
		limit   = fs.Int("limit", 0, "stop the scan after this many rows (0: scan everything)")
		jsonOut = fs.Bool("json", false, "print the report as JSON instead of text")
	)
	fs.Parse(args)

	idx, sn, err := loadIndex(*in)
	if err != nil {
		return err
	}

	r := coax.FullRect(idx.Dims())
	if err := fillBounds(r.Min, *min, math.Inf(-1), idx.Dims()); err != nil {
		return fmt.Errorf("-min: %w", err)
	}
	if err := fillBounds(r.Max, *max, math.Inf(1), idx.Dims()); err != nil {
		return fmt.Errorf("-max: %w", err)
	}
	q := coax.FromRect(r)
	if *wheres != "" {
		for _, clause := range strings.Split(*wheres, ",") {
			parts := strings.SplitN(strings.TrimSpace(clause), ":", 3)
			if len(parts) != 3 {
				return fmt.Errorf("-where clause %q: want col:lo:hi", clause)
			}
			lo, hi := math.Inf(-1), math.Inf(1)
			if p := strings.TrimSpace(parts[1]); p != "_" && p != "" {
				if lo, err = strconv.ParseFloat(p, 64); err != nil {
					return fmt.Errorf("-where clause %q: %w", clause, err)
				}
			}
			if p := strings.TrimSpace(parts[2]); p != "_" && p != "" {
				if hi, err = strconv.ParseFloat(p, 64); err != nil {
					return fmt.Errorf("-where clause %q: %w", clause, err)
				}
			}
			q.Where(parts[0], coax.Between(lo, hi))
		}
	}
	if *limit > 0 {
		q.Limit(*limit)
	}

	exp, err := q.Explain(idx)
	if err != nil {
		return err
	}
	if err := sn.PageErr(); err != nil {
		return fmt.Errorf("%s: corrupt page touched during query: %w", *in, err)
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}
	fmt.Println(exp)
	return nil
}

// loadIndex opens a v3 snapshot of either layout, memory-mapped, a
// single-index file as one shard. The query and explain subcommands never
// unmap it: the mapping stays valid until process exit. Callers must check
// the returned snapshot's PageErr after querying: compressed pages are
// CRC-verified lazily, so a corrupt page surfaces there, not at open.
func loadIndex(path string) (*coax.Index, *coax.Snapshot, error) {
	sn, err := coax.OpenFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s: %w", path, err)
	}
	idx, err := sn.Serving(0)
	return idx, sn, err
}

// fillBounds parses a comma-separated bound list into dst; '_' (or an empty
// field) keeps the unconstrained default.
func fillBounds(dst []float64, spec string, unconstrained float64, dims int) error {
	if spec == "" {
		return nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != dims {
		return fmt.Errorf("%d bounds for a %d-dimensional index", len(parts), dims)
	}
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "_" || p == "" {
			dst[i] = unconstrained
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return fmt.Errorf("bound %d: %w", i, err)
		}
		dst[i] = v
	}
	return nil
}

func formatRow(row []float64) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
