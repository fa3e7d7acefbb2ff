package coax_test

import (
	"fmt"
	"log"

	"github.com/coax-index/coax/coax"
)

// ExampleQuery shows the v2 builder: name-based predicates compiled
// against the indexed table's columns.
func ExampleQuery() {
	table := coax.NewTable([]string{"seq", "temp", "reading"})
	for i := 0; i < 8000; i++ {
		seq := float64(i)
		table.Append([]float64{seq, 20 + seq*0.01, float64(i % 100)})
	}
	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}

	n, err := coax.NewQuery().
		Where("reading", coax.Between(10, 19)).
		Where("seq", coax.AtLeast(4000)).
		Count(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n)
	// Output: 400
}

// ExampleQuery_limit stops the scan — across every shard of a sharded
// index — as soon as enough rows are found.
func ExampleQuery_limit() {
	table := coax.NewTable([]string{"seq", "temp", "reading"})
	for i := 0; i < 8000; i++ {
		seq := float64(i)
		table.Append([]float64{seq, 20 + seq*0.01, float64(i % 100)})
	}
	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).
		BuildSharded(coax.NewTableSource(table, 0), coax.DefaultShardOptions())
	if err != nil {
		log.Fatal(err)
	}

	rows, err := coax.NewQuery().
		Where("reading", coax.Eq(7)).
		Limit(3).
		Collect(idx) // rows are stable copies
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(rows))
	// Output: 3
}

// ExampleQuery_Head answers a paged query: the exact number of matching
// rows and the first of them. The engine copies only the rows it returns;
// the rest of the matches are counted off its selection bitmaps.
func ExampleQuery_Head() {
	table := coax.NewTable([]string{"seq", "temp", "reading"})
	for i := 0; i < 8000; i++ {
		seq := float64(i)
		table.Append([]float64{seq, 20 + seq*0.01, float64(i % 100)})
	}
	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).
		BuildSharded(coax.NewTableSource(table, 0), coax.DefaultShardOptions())
	if err != nil {
		log.Fatal(err)
	}

	page, err := coax.NewQuery().
		Where("reading", coax.Eq(7)).
		Where("seq", coax.AtLeast(4000)).
		Head(idx, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(page.Count, len(page.Rows), page.Complete)
	// Output: 40 2 true
}

// ExampleQuery_aggregate computes an aggregate entirely inside the scan
// kernels: COUNT is a popcount over selection bitmaps, SUM/MIN/MAX read
// only the selected values of the value column, and no row is materialized.
func ExampleQuery_aggregate() {
	table := coax.NewTable([]string{"seq", "temp", "reading"})
	for i := 0; i < 8000; i++ {
		seq := float64(i)
		table.Append([]float64{seq, 20 + seq*0.01, float64(i % 100)})
	}
	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}

	res, err := coax.NewQuery().
		Where("reading", coax.Between(10, 19)).
		Aggregate(idx, coax.Sum("reading"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Count, res.Value)

	res, err = coax.NewQuery().
		Where("seq", coax.AtMost(3999)).
		Aggregate(idx, coax.CountRows())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Count)
	// Output:
	// 800 11600
	// 4000
}

// ExampleQuery_groupBy groups an aggregate by a categorical column: one
// result per distinct value, sorted by ascending key.
func ExampleQuery_groupBy() {
	table := coax.NewTable([]string{"seq", "temp", "reading"})
	for i := 0; i < 8000; i++ {
		seq := float64(i)
		table.Append([]float64{seq, 20 + seq*0.01, float64(i % 3)})
	}
	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}

	res, err := coax.NewQuery().
		GroupBy("reading").
		Aggregate(idx, coax.Avg("temp"))
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range res.Groups {
		fmt.Printf("reading %.0f: %d rows\n", g.Key, g.Count)
	}
	// Output:
	// reading 0: 2667 rows
	// reading 1: 2667 rows
	// reading 2: 2666 rows
}

// ExampleQuery_explain reports how a query on a dependent attribute
// executed: the constraint is translated through the learned soft-FD model
// into a predictor interval, and the report shows the primary/outlier
// scan split.
func ExampleQuery_explain() {
	table := coax.GenerateAirline(coax.DefaultAirlineConfig(40000))
	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}

	exp, err := coax.NewQuery().
		Where("airtime", coax.Between(60, 90)).
		Explain(idx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("translations:", len(exp.Translations))
	fmt.Println("dependent:", exp.Translations[0].Dependent, "predictor:", exp.Translations[0].Predictor)
	fmt.Println("primary probed:", exp.PrimaryProbed, "outlier probed:", exp.OutlierProbed)
	fmt.Println("complete:", exp.Complete)
	// Output:
	// translations: 1
	// dependent: airtime predictor: elapsed
	// primary probed: true outlier probed: true
	// complete: true
}
