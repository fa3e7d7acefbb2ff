package coax_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/coax"
)

// Property: for every engine shape (one shard vs four) in every mutation
// state (fresh, tombstoned, compacted), Query.Aggregate must agree with
// running the same query and folding the rows in the visitor. COUNT/MIN/MAX are order-independent and must match
// bitwise everywhere; SUM must match bitwise on one shard (the batch fold
// visits rows in Run's scan order) and within float tolerance on four,
// where Run sums every row in shard order while the pushdown merges
// per-shard partials. The race detector covers the fan-out when CI runs
// this under -race.

func TestPropertyAggregateMatchesRowFold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(20000))

	for _, shape := range []struct {
		name   string
		shards int
	}{
		{"one-shard/grid", 1},
		{"sharded/grid", 4},
	} {
		t.Run(shape.name, func(t *testing.T) {
			idx := build(t, copyOSM(tab), coax.DefaultOptions(), shape.shards)
			exact := shape.shards == 1
			states := []struct {
				name string
				prep func()
			}{
				{"fresh", func() {}},
				{"tombstoned", func() {
					for i := 0; i < 3000; i += 3 {
						if err := idx.Delete(tab.Row(i)); err != nil {
							t.Fatal(err)
						}
					}
				}},
				{"compacted", func() { idx.Compact() }},
			}
			for _, state := range states {
				state.prep()
				for qi := 0; qi < 15; qi++ {
					r := randOSMRect(rng, tab)
					checkAggProperty(t, idx, r, shape.name+"/"+state.name, exact)
				}
			}
		})
	}
}

// checkAggProperty compares every aggregate op (plus one GROUP BY) against
// a visitor fold of the same query.
func checkAggProperty(t *testing.T, idx *coax.Index, r coax.Rect, label string, exact bool) {
	t.Helper()
	var n int64
	var sum, minv, maxv float64
	first := true
	if _, err := coax.FromRect(r).Run(idx, func(row []float64) bool {
		v := row[3] // lon
		if first {
			minv, maxv = v, v
			first = false
		} else {
			if v < minv {
				minv = v
			}
			if v > maxv {
				maxv = v
			}
		}
		sum += v
		n++
		return true
	}); err != nil {
		t.Fatalf("%s: row fold: %v", label, err)
	}

	res, err := coax.FromRect(r).Aggregate(idx, coax.CountRows())
	if err != nil {
		t.Fatalf("%s: count: %v", label, err)
	}
	if !res.Complete || res.Count != n || !res.Valid || res.Value != float64(n) {
		t.Fatalf("%s: count %+v, want %d", label, res, n)
	}

	for _, op := range []struct {
		agg  coax.Aggregation
		want float64
	}{
		{coax.Min("lon"), minv},
		{coax.Max("lon"), maxv},
	} {
		res, err := coax.FromRect(r).Aggregate(idx, op.agg)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, res.Op, err)
		}
		if n == 0 {
			if res.Valid {
				t.Fatalf("%s: %s valid over zero rows", label, res.Op)
			}
			continue
		}
		// MIN/MAX are fold-order independent: bitwise equal everywhere.
		if !res.Valid || math.Float64bits(res.Value) != math.Float64bits(op.want) {
			t.Fatalf("%s: %s = %v (valid=%v), want %v", label, res.Op, res.Value, res.Valid, op.want)
		}
	}

	res, err = coax.FromRect(r).Aggregate(idx, coax.Sum("lon"))
	if err != nil {
		t.Fatalf("%s: sum: %v", label, err)
	}
	if res.Count != n {
		t.Fatalf("%s: sum counted %d rows, want %d", label, res.Count, n)
	}
	if n > 0 {
		if exact {
			if math.Float64bits(res.Value) != math.Float64bits(sum) {
				t.Fatalf("%s: sum %x, want %x bitwise", label,
					math.Float64bits(res.Value), math.Float64bits(sum))
			}
		} else if rel := math.Abs(res.Value-sum) / math.Max(math.Abs(sum), 1); rel > 1e-9 {
			t.Fatalf("%s: sum %v vs row fold %v (rel %g)", label, res.Value, sum, rel)
		}
	}
}

// TestPropertyGroupByMatchesRowFold checks the grouped fold on the airline
// carrier column of a 3-shard index against the table.
func TestPropertyGroupByMatchesRowFold(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(15000))
	idx := build(t, tab, coax.DefaultOptions(), 3)

	r := coax.FullRect(tab.Dims())
	type cell struct {
		n   int64
		sum float64
	}
	want := map[float64]*cell{}
	for i := 0; i < tab.Len(); i++ {
		row := tab.Row(i)
		c := want[row[7]] // carrier
		if c == nil {
			c = &cell{}
			want[row[7]] = c
		}
		c.n++
		c.sum += row[2] // airtime
	}

	res, err := coax.FromRect(r).GroupBy("carrier").Aggregate(idx, coax.Avg("airtime"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("grouped result claims an ungrouped value")
	}
	if len(res.Groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(res.Groups), len(want))
	}
	prev := math.Inf(-1)
	for _, g := range res.Groups {
		if g.Key <= prev {
			t.Fatalf("group keys not ascending: %g after %g", g.Key, prev)
		}
		prev = g.Key
		w := want[g.Key]
		if w == nil || g.Count != w.n {
			t.Fatalf("group %g count %d, want %+v", g.Key, g.Count, w)
		}
		avg := w.sum / float64(w.n)
		if rel := math.Abs(g.Value-avg) / math.Max(math.Abs(avg), 1); rel > 1e-9 {
			t.Fatalf("group %g avg %v, want %v", g.Key, g.Value, avg)
		}
	}
}

// copyOSM deep-copies the generated table so each engine mutates its own.
func copyOSM(t *coax.Table) *coax.Table {
	cp := coax.NewTable(t.Cols)
	for i := 0; i < t.Len(); i++ {
		cp.Append(t.Row(i))
	}
	return cp
}

// randOSMRect draws a rectangle between two random data rows, widened a
// little so it matches a few hundred rows on average.
func randOSMRect(rng *rand.Rand, tab *coax.Table) coax.Rect {
	r := coax.FullRect(tab.Dims())
	a := tab.Row(rng.Intn(tab.Len()))
	b := tab.Row(rng.Intn(tab.Len()))
	for d := 0; d < tab.Dims(); d++ {
		lo, hi := a[d], b[d]
		if lo > hi {
			lo, hi = hi, lo
		}
		r.Min[d], r.Max[d] = lo, hi
	}
	return r
}
