// Command fdscan discovers soft functional dependencies in a CSV file and
// prints the accepted pairs and merged groups — the automatic detection
// step that the paper contrasts with HERMIT-style hand-specified FDs.
//
// Usage:
//
//	fdscan [-sample 20000] [-minr2 0.75] [-exclude 6,7] data.csv
//
// The CSV must have a header row and numeric fields.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/softfd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is fdscan with its arguments and output streams passed in; it
// returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sample  = fs.Int("sample", 20000, "detection sample size")
		minR2   = fs.Float64("minr2", 0.75, "minimum inlier-band R² to accept a dependency")
		maxFrac = fs.Float64("maxmargin", 0.30, "maximum total margin as a fraction of the dependent range")
		exclude = fs.String("exclude", "", "comma-separated column indices to skip (categoricals)")
		seed    = fs.Int64("seed", 42, "sampling seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fdscan [flags] data.csv")
		fs.PrintDefaults()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fdscan:", err)
		return 1
	}

	cfg := softfd.DefaultConfig()
	cfg.SampleCount = *sample
	cfg.MinR2 = *minR2
	cfg.MaxMarginFrac = *maxFrac
	cfg.Seed = *seed
	if *exclude != "" {
		for _, part := range strings.Split(*exclude, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fail(fmt.Errorf("bad -exclude entry %q: %w", part, err))
			}
			cfg.ExcludeCols = append(cfg.ExcludeCols, c)
		}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	tab, err := dataset.ReadCSV(f)
	if err != nil {
		return fail(err)
	}
	res, err := softfd.Detect(tab, cfg)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "scanned %d rows x %d columns (%s)\n", tab.Len(), tab.Dims(), fs.Arg(0))

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\n== accepted soft FDs (X → D means X predicts D) ==")
	fmt.Fprintln(tw, "X\tD\tslope\tintercept\tepsLB\tepsUB\tR2(inliers)\tinlier%")
	for _, p := range res.Pairs {
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.4g\t%.4g\t%.3f\t%.1f%%\n",
			tab.Cols[p.X], tab.Cols[p.D], p.Model.Slope, p.Model.Intercept,
			p.EpsLB, p.EpsUB, p.R2, p.Inlier*100)
	}
	tw.Flush()

	fmt.Fprintln(tw, "\n== merged groups (one predictor per group) ==")
	fmt.Fprintln(tw, "predictor\tdependents")
	for _, g := range res.Groups {
		deps := make([]string, 0, len(g.Members)-1)
		for _, d := range g.Dependents() {
			deps = append(deps, tab.Cols[d])
		}
		fmt.Fprintf(tw, "%s\t%s\n", tab.Cols[g.Predictor], strings.Join(deps, ", "))
	}
	tw.Flush()
	if len(res.Groups) == 0 {
		fmt.Fprintln(stdout, "\nno soft functional dependencies detected")
	}
	return 0
}
