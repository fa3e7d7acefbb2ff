// Airline scenario: the paper's motivating workload. COAX detects the two
// three-attribute correlation groups of a flights table — (distance,
// elapsed, airtime) and (deptime, arrtime, schedarr) — and answers
// analytical range queries while indexing only half the dimensions.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/coax-index/coax/coax"
)

func main() {
	fmt.Println("generating synthetic airline data (500k flights)...")
	table := coax.GenerateAirline(coax.DefaultAirlineConfig(500000))

	opt := coax.DefaultOptions()
	// Categorical codes carry no linear structure; skip them, as a DBA
	// would for any non-numeric column.
	opt.SoftFD.ExcludeCols = []int{6, 7} // dayofweek, carrier

	start := time.Now()
	idx, err := coax.NewBuilder(coax.TableSchema(table), opt).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built in %v\n", time.Since(start))

	st := idx.BuildStats()
	for _, g := range st.Groups {
		fmt.Printf("group: predictor %q also stands in for", table.Cols[g.Predictor])
		for _, d := range g.Dependents() {
			fmt.Printf(" %q", table.Cols[d])
		}
		fmt.Println()
	}
	fmt.Printf("primary index: %.1f%% of rows in a %d-dimensional grid (down from %d attributes)\n",
		st.PrimaryRatio*100, st.GridDims, st.Dims)

	// "Which flights flew 800-1200 miles and were airborne 2-3 hours?"
	// Airtime is a dependent attribute — it is not indexed, yet the query
	// is answered exactly via translation through the distance model. The
	// v2 builder names the columns instead of indexing them by position.
	q := coax.NewQuery().
		Where("distance", coax.Between(800, 1200)). // miles
		Where("airtime", coax.Between(120, 180))    // minutes
	start = time.Now()
	n, err := q.Count(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flights 800-1200 mi with 2-3h in the air: %d (%v)\n", n, time.Since(start))

	// EXPLAIN the same query: the report shows the airtime constraint
	// translated into a distance interval and the primary/outlier split.
	exp, err := q.Explain(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(exp)

	// "Evening departures that arrived after midnight" — and just the
	// first 5 of them: Limit stops the scan as soon as it has enough.
	q2 := coax.NewQuery().
		Where("deptime", coax.Between(20*60, 24*60)). // departures 20:00-24:00
		Where("arrtime", coax.Between(24*60, 32*60))  // arrivals past midnight
	start = time.Now()
	n, err = q2.Count(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overnight arrivals after evening departures: %d (%v)\n", n, time.Since(start))
	first5, err := q2.Limit(5).Collect(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first %d such flights fetched with Limit(5) early termination\n", len(first5))

	fmt.Printf("index directory: %d bytes for %d rows (%.4f bytes/row)\n",
		idx.MemoryOverhead(), table.Len(),
		float64(idx.MemoryOverhead())/float64(table.Len()))
}
