// Tuning walkthrough: how the soft-FD margin and the primary grid
// resolution shape the primary-index ratio, the directory size, and the
// query latency — the trade-offs behind Figures 7 and 8 of the paper.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/coax-index/coax/coax"
)

func main() {
	table := coax.GenerateAirline(coax.DefaultAirlineConfig(200000))

	// A fixed query workload: distance/airtime rectangles.
	rng := rand.New(rand.NewSource(7))
	queries := make([]coax.Rect, 100)
	for i := range queries {
		q := coax.FullRect(8)
		base := 200 + rng.Float64()*2000
		q.Min[0], q.Max[0] = base, base+400 // distance window
		q.Min[2], q.Max[2] = 30, 240        // airtime window
		queries[i] = q
	}

	fmt.Println("MaxMarginFrac sweep (wider margins admit more rows into the primary index):")
	fmt.Printf("%-10s %-14s %-14s %-12s\n", "margin", "primary ratio", "avg query", "directory")
	for _, margin := range []float64{0.05, 0.15, 0.30, 0.50} {
		opt := coax.DefaultOptions()
		opt.SoftFD.ExcludeCols = []int{6, 7}
		opt.SoftFD.MaxMarginFrac = margin
		idx, err := coax.NewBuilder(coax.TableSchema(table), opt).Build(coax.NewTableSource(table, 0))
		if err != nil {
			log.Fatal(err)
		}
		st := idx.BuildStats()
		fmt.Printf("%-10.2f %-14s %-14v %-12d\n",
			margin,
			fmt.Sprintf("%.1f%%", st.PrimaryRatio*100),
			timeQueries(idx, queries),
			idx.MemoryOverhead())
	}

	fmt.Println("\nPrimary grid resolution sweep (the Figure 8 sweet spot):")
	fmt.Printf("%-10s %-14s %-12s\n", "cells/dim", "avg query", "directory")
	for _, cells := range []int{2, 8, 24, 48} {
		opt := coax.DefaultOptions()
		opt.SoftFD.ExcludeCols = []int{6, 7}
		opt.PrimaryCellsPerDim = cells
		idx, err := coax.NewBuilder(coax.TableSchema(table), opt).Build(coax.NewTableSource(table, 0))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-14v %-12d\n", cells, timeQueries(idx, queries), idx.MemoryOverhead())
	}
}

func timeQueries(idx *coax.Index, queries []coax.Rect) time.Duration {
	start := time.Now()
	total := 0
	for _, q := range queries {
		n, err := coax.FromRect(q).Count(idx)
		if err != nil {
			log.Fatal(err)
		}
		total += n
	}
	_ = total
	return time.Since(start) / time.Duration(len(queries))
}
