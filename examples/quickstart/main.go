// Quickstart: build a COAX index over a small correlated table and run a
// range query, a point query, and a query on a dependent attribute.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/coax-index/coax/coax"
)

func main() {
	// A tiny sensor log: sequence number, capture timestamp (tracks the
	// sequence number almost perfectly), and a reading.
	table := coax.NewTable([]string{"seq", "captured_at", "reading"})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		seq := float64(i)
		capturedAt := 1000 + seq*0.5 + rng.NormFloat64()*2 // soft FD: seq → time
		reading := rng.NormFloat64() * 10
		table.Append([]float64{seq, capturedAt, reading})
	}

	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}

	st := idx.BuildStats()
	fmt.Printf("indexed %d rows, %d dims\n", st.Rows, st.Dims)
	fmt.Printf("detected %d correlated group(s); %d dependent dim(s) need no index\n",
		len(st.Groups), st.DependentDims)
	fmt.Printf("primary index holds %.1f%% of rows; directory overhead %d bytes\n",
		st.PrimaryRatio*100, idx.MemoryOverhead())

	// Range query on the *dependent* attribute through the v2 builder:
	// COAX translates the captured_at constraint into a seq constraint via
	// the learned model.
	n, err := coax.NewQuery().
		Where("captured_at", coax.Between(20000, 20100)).
		Count(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rows captured in [20000, 20100]: %d\n", n)

	// Predicates over two attributes, fetching only the first 10 matches —
	// Limit stops the scan as soon as it has them.
	rows, err := coax.NewQuery().
		Where("seq", coax.Between(50000, 60000)).
		Where("reading", coax.Between(-5, 5)).
		Limit(10).
		Collect(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seq in [50k, 60k] with |reading| <= 5: fetched first %d rows\n", len(rows))

	// A rectangle query: the point of one row.
	found, err := coax.FromRect(coax.PointQuery(table.Row(777))).Count(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point query found %d row(s)\n", found)
}
