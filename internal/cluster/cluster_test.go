package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/wire"
	"github.com/coax-index/coax/internal/workload"
)

// testTable plants the repo's usual soft-FD shape (col1 ≈ 2·col0 + 50)
// with integer-valued aggregate and group columns, so distributed SUM/AVG
// results are exactly representable and compare bit-for-bit against the
// single-process oracle.
func testTable(rng *rand.Rand, n int) *dataset.Table {
	t := dataset.NewTable([]string{"x", "d", "u", "g"})
	for i := 0; i < n; i++ {
		x := rng.Float64() * 1000
		var d float64
		if rng.Float64() < 0.05 {
			d = rng.Float64() * 2100
		} else {
			d = 2*x + 50 + rng.NormFloat64()*4
		}
		t.Append([]float64{x, d, math.Round(rng.Float64() * 100), float64(rng.Intn(8))})
	}
	return t
}

func coreOptions() core.Options {
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 4000
	return opt
}

func localShardOptions() shard.Options {
	so := shard.DefaultOptions()
	so.NumShards = 2
	so.Workers = 2
	return so
}

// testCluster is an in-process cluster: N nodes on loopback TCP listeners
// plus a router, with a single-process oracle over the same table and as
// many range shards as the cluster has global shards — the same partition.
type testCluster struct {
	addrs  []string
	nodes  map[string]*Node
	router *Router
	oracle *shard.Sharded
	table  *dataset.Table
}

func startCluster(t testing.TB, table *dataset.Table, shards, nodes, rf int, opts ...RouterOption) *testCluster {
	t.Helper()
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{addrs: addrs, nodes: make(map[string]*Node), table: table}
	for i, addr := range addrs {
		hosted := ring.HostedShards(addr, shards, rf)
		if len(hosted) == 0 {
			t.Fatalf("node %s hosts no shards (shards=%d nodes=%d rf=%d)", addr, shards, nodes, rf)
		}
		engines, err := BuildShards(table, hosted, shards, coreOptions(), localShardOptions())
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(engines, shards)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[addr] = n
		go n.Serve(lns[i])
	}
	t.Cleanup(func() {
		if tc.router != nil {
			tc.router.Close()
		}
		for _, n := range tc.nodes {
			n.Close()
		}
	})
	rt, err := NewRouter(addrs, shards, rf, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = rt
	so := localShardOptions()
	so.NumShards = shards
	oracle, err := shard.Build(table, coreOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	tc.oracle = oracle
	return tc
}

func collectRouter(t *testing.T, rt *Router, r index.Rect, spec index.Spec) ([][]float64, bool) {
	t.Helper()
	var rows [][]float64
	complete, err := rt.Exec(r, spec, func(row []float64) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		t.Fatalf("router exec: %v", err)
	}
	return rows, complete
}

func collectOracle(s *shard.Sharded, r index.Rect, spec index.Spec) [][]float64 {
	var rows [][]float64
	s.Exec(r, spec, func(row []float64) bool {
		rows = append(rows, row)
		return true
	}, nil)
	return rows
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
}

func rowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// The distributed engine must answer every query with exactly the
// multiset of rows the single-process engine returns.
func TestClusterQueryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tc := startCluster(t, testTable(rng, 4000), 16, 3, 2)
	for q := 0; q < 25; q++ {
		r := workload.RandRect(rng, tc.table)
		got, complete := collectRouter(t, tc.router, r, index.Spec{})
		want := collectOracle(tc.oracle, r, index.Spec{})
		if !complete {
			t.Fatalf("query %d: incomplete without a limit", q)
		}
		sortRows(got)
		sortRows(want)
		if !rowsEqual(got, want) {
			t.Fatalf("query %d: cluster returned %d rows, oracle %d", q, len(got), len(want))
		}
	}
}

// Rows come in global shard order, then each shard's scan order, whatever
// the node timing: a rectangle's rows are its shards' own answers laid end
// to end, every time it is asked, and a reply limited to or keeping k rows
// holds the first k of them.
func TestClusterRowsInShardOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tc := startCluster(t, testTable(rng, 6000), 8, 2, 2)
	for _, r := range []index.Rect{index.Full(4), workload.RandRect(rng, tc.table), workload.RandRect(rng, tc.table)} {
		var want [][]float64
		for g, reps := range tc.router.replicas {
			states, _ := tc.nodes[reps[0]].shards[g].ExecRows([]index.Rect{r}, index.Spec{}, index.RowsState{Keep: -1}, nil)
			for i := 0; i < states[0].Held(); i++ {
				want = append(want, states[0].Row(i))
			}
		}
		for rep := 0; rep < 10; rep++ {
			if got, _ := collectRouter(t, tc.router, r, index.Spec{}); !rowsEqual(got, want) {
				t.Fatalf("rect %v, repeat %d: %d rows not in shard order (want %d)", r, rep, len(got), len(want))
			}
		}
		for _, k := range []int{1, 100, 1000} {
			k = min(k, len(want))
			if k == 0 {
				continue
			}
			if got, _ := collectRouter(t, tc.router, r, index.Spec{Limit: k}); !rowsEqual(got, want[:k]) {
				t.Fatalf("rect %v: limit %d did not return the first %d rows in shard order", r, k, k)
			}
			st, complete, err := tc.router.ExecRows(r, index.Spec{}, index.RowsState{Keep: k})
			if err != nil || !complete {
				t.Fatalf("rect %v keep %d: complete=%v err=%v", r, k, complete, err)
			}
			var got [][]float64
			for i := 0; i < st.Held(); i++ {
				got = append(got, st.Row(i))
			}
			if st.Count != int64(len(want)) || !rowsEqual(got, want[:k]) {
				t.Fatalf("rect %v keep %d: count %d (want %d), rows not the first %d in shard order", r, k, st.Count, len(want), k)
			}
		}
	}
}

// Limit(k) must deliver exactly k rows (when the full result has at
// least k), every one of them a member of the oracle's result set.
func TestClusterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tc := startCluster(t, testTable(rng, 4000), 16, 3, 2)
	for q := 0; q < 10; q++ {
		r := workload.RandRect(rng, tc.table)
		want := collectOracle(tc.oracle, r, index.Spec{})
		if len(want) < 5 {
			continue
		}
		limit := 1 + rng.Intn(len(want))
		got, complete := collectRouter(t, tc.router, r, index.Spec{Limit: limit})
		if len(got) != limit {
			t.Fatalf("query %d: limit %d delivered %d rows", q, limit, len(got))
		}
		if complete && limit < len(want) {
			t.Fatalf("query %d: limited scan reported complete", q)
		}
		oracleSet := make(map[string]int, len(want))
		for _, row := range want {
			oracleSet[fmt.Sprint(row)]++
		}
		for _, row := range got {
			k := fmt.Sprint(row)
			if oracleSet[k] == 0 {
				t.Fatalf("query %d: limited row %v not in oracle result", q, row)
			}
			oracleSet[k]--
		}
	}
}

// A yield that declines stops the fan-out and reports incomplete.
func TestClusterYieldStops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tc := startCluster(t, testTable(rng, 3000), 8, 2, 2)
	r := index.Rect{Min: []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		Max: []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}}
	seen := 0
	complete, err := tc.router.Exec(r, index.Spec{}, func([]float64) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Error("declined yield reported complete")
	}
	if seen != 10 {
		t.Errorf("yield saw %d rows, want 10", seen)
	}
}

// A cancelled context stops the distributed scan promptly.
func TestClusterCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tc := startCluster(t, testTable(rng, 3000), 8, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	r := index.Rect{Min: []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		Max: []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}}
	seen := 0
	start := time.Now()
	complete, err := tc.router.Exec(r, index.Spec{Ctx: ctx}, func([]float64) bool {
		seen++
		if seen == 5 {
			cancel()
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Error("cancelled scan reported complete")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %s to unwind", elapsed)
	}
}

// Aggregates must equal the oracle's bit for bit, SUM and AVG over
// fractional columns included: the oracle has the cluster's partition and
// both merge the shards' partials in shard order.
func TestClusterAggOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tc := startCluster(t, testTable(rng, 4000), 16, 3, 2)
	specs := []index.AggSpec{
		{Op: index.AggCount, Col: -1, Group: -1},
		{Op: index.AggSum, Col: 2, Group: -1},
		{Op: index.AggSum, Col: 0, Group: -1},
		{Op: index.AggAvg, Col: 1, Group: -1},
		{Op: index.AggMin, Col: 2, Group: -1},
		{Op: index.AggMax, Col: 0, Group: -1},
		{Op: index.AggAvg, Col: 2, Group: 3},
		{Op: index.AggSum, Col: 0, Group: 3},
		{Op: index.AggCount, Col: -1, Group: 3},
	}
	for q := 0; q < 10; q++ {
		r := workload.RandRect(rng, tc.table)
		if q == 0 {
			r = index.Full(4)
		}
		for _, aspec := range specs {
			got, complete, err := tc.router.ExecAgg(r, index.Spec{}, aspec)
			if err != nil {
				t.Fatalf("query %d %v: %v", q, aspec, err)
			}
			if !complete {
				t.Fatalf("query %d %v: incomplete", q, aspec)
			}
			want, _ := tc.oracle.ExecAgg(r, index.Spec{}, aspec, nil)
			if got.All != want.All {
				t.Fatalf("query %d %v: cell %+v, oracle %+v", q, aspec, got.All, want.All)
			}
			gk, wk := got.GroupKeys(), want.GroupKeys()
			if len(gk) != len(wk) {
				t.Fatalf("query %d %v: %d groups, oracle %d", q, aspec, len(gk), len(wk))
			}
			for i, k := range gk {
				if k != wk[i] || *got.Groups[k] != *want.Groups[k] {
					t.Fatalf("query %d %v group %v: cell %+v, oracle %+v", q, aspec, k, got.Groups[k], want.Groups[k])
				}
			}
		}
	}
}

// The global shards are the range slots of one build, so the router asks
// only the shards a rectangle's range can reach, of as few nodes as it
// can, each node ships at most
// Keep rows of each with its exact count, and the merged reply is the
// oracle's ExecRows — rows, order and count — at every Keep and Limit,
// mutations across a cut included.
func TestClusterRangePlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const shards = 8
	tc := startCluster(t, testTable(rng, 6000), shards, 2, 2, WithHedging(false))
	rt := tc.router
	col, cuts := rt.ranges.Col, rt.ranges.Cuts
	if col != tc.oracle.RangeColumn() || !slices.Equal(cuts, tc.oracle.Cuts()) || len(cuts) != shards-1 {
		t.Fatalf("router cuts column %d at %v, oracle column %d at %v", col, cuts, tc.oracle.RangeColumn(), tc.oracle.Cuts())
	}

	// ask runs ExecRows and reports the shards asked and the rows shipped.
	ask := func(r index.Rect, keep index.RowsState) (st index.RowsState, probed, shipped int64) {
		t.Helper()
		p0, s0 := obs.ClusterShardsProbed.Value(), obs.ClusterRowsReceived.Value()
		st, _, err := rt.ExecRows(r, index.Spec{}, keep)
		if err != nil {
			t.Fatalf("rect %v: %v", r, err)
		}
		return st, obs.ClusterShardsProbed.Value() - p0, obs.ClusterRowsReceived.Value() - s0
	}
	// same holds the router's reply to the oracle's, bit for bit.
	same := func(label string, r index.Rect, keep index.RowsState) {
		t.Helper()
		got, _, _ := ask(r, keep)
		want, _ := tc.oracle.ExecRows([]index.Rect{r}, index.Spec{}, keep, nil)
		if got.Count != want[0].Count || !slices.Equal(got.Rows, want[0].Rows) {
			t.Fatalf("%s: keep %+v: router %d rows of %d, oracle %d of %d", label, keep, got.Held(), got.Count, want[0].Held(), want[0].Count)
		}
	}

	// A rectangle inside one slot asks one shard.
	inside := index.Full(4)
	inside.Min[col], inside.Max[col] = cuts[2], (cuts[2]+cuts[3])/2
	if lo, hi := rt.ShardSpan(inside); lo != 3 || hi != 3 {
		t.Fatalf("span of a rectangle inside slot 3: [%d, %d]", lo, hi)
	}
	if _, probed, _ := ask(inside, index.RowsState{Keep: -1}); probed != 1 {
		t.Fatalf("a rectangle inside one slot asked %d shards", probed)
	}
	same("inside one slot", inside, index.RowsState{Keep: -1})

	// Each node hosts every shard here. A rectangle that crosses one cut
	// asks one node; a wider one spreads evenly over both, the full
	// rectangle included: one RPC per node, never every shard on one.
	for _, tcase := range []struct {
		first, last int // slots
		rpcs        int64
	}{{3, 4, 1}, {3, 6, 2}, {0, shards - 1, 2}} {
		r := index.Full(4)
		if tcase.first > 0 {
			r.Min[col] = cuts[tcase.first-1]
		}
		if tcase.last < shards-1 {
			r.Max[col] = (cuts[tcase.last-1] + cuts[tcase.last]) / 2
		}
		rpcs := obs.ClusterRPCs.Value()
		if _, probed, _ := ask(r, index.RowsState{Keep: -1}); probed != int64(tcase.last-tcase.first+1) || obs.ClusterRPCs.Value()-rpcs != tcase.rpcs {
			t.Fatalf("a rectangle over slots %d..%d asked %d shards in %d RPCs, want %d RPCs",
				tcase.first, tcase.last, probed, obs.ClusterRPCs.Value()-rpcs, tcase.rpcs)
		}
		same(fmt.Sprintf("slots %d..%d", tcase.first, tcase.last), r, index.RowsState{Keep: -1})
	}

	// A rectangle the nodes could not answer is refused before it is sent:
	// a NaN bound on the range column, and too few dimensions.
	nan := index.Full(4)
	nan.Min[col] = math.NaN()
	for _, r := range []index.Rect{nan, index.Full(3)} {
		if _, _, err := rt.ExecRows(r, index.Spec{}, index.RowsState{Keep: -1}); err == nil {
			t.Errorf("ExecRows answered %v", r)
		}
		if _, _, err := rt.ExecAgg(r, index.Spec{}, index.AggSpec{Op: index.AggCount, Col: -1, Group: -1}); err == nil {
			t.Errorf("ExecAgg answered %v", r)
		}
	}

	// Infinite bounds reach every shard; an empty rectangle none.
	openBelow := index.Full(4)
	openBelow.Max[col] = cuts[1] // on cut 1: slot 2 holds it
	for _, tcase := range []struct {
		name   string
		r      index.Rect
		probed int64
	}{
		{"full", index.Full(4), shards},
		{"open below", openBelow, 3},
		{"empty", index.Rect{Min: []float64{5, 5, 5, 5}, Max: []float64{4, 4, 4, 4}}, 0},
	} {
		st, probed, _ := ask(tcase.r, index.RowsState{Keep: -1})
		if probed != tcase.probed {
			t.Errorf("%s: asked %d shards, want %d", tcase.name, probed, tcase.probed)
		}
		if tcase.name == "empty" && st.Count != 0 {
			t.Errorf("empty rectangle counted %d rows", st.Count)
		}
		same(tcase.name, tcase.r, index.RowsState{Keep: -1})
	}

	// Each shard ships at most Keep rows, and the counts stay exact.
	for _, k := range []int{0, 1, 10, 100} {
		st, probed, shipped := ask(index.Full(4), index.RowsState{Keep: k})
		if st.Count != int64(tc.table.Len()) || shipped > int64(k)*probed {
			t.Fatalf("keep %d: count %d of %d, %d rows shipped from %d shards", k, st.Count, tc.table.Len(), shipped, probed)
		}
	}
	for q := 0; q < 20; q++ {
		r := workload.RandRect(rng, tc.table)
		for _, keep := range []index.RowsState{{Keep: -1}, {Keep: 0}, {Keep: 7}, {Keep: 100}, {Keep: 100, Limit: 100}, {Keep: 0, Limit: 5}} {
			same(fmt.Sprintf("rect %d", q), r, keep)
		}
	}

	// An update across a cut moves the row between global shards, as it
	// moves in the oracle.
	row := []float64{0, 0, 3, 1}
	row[col] = cuts[4] - 1e-9
	moved := append([]float64(nil), row...)
	moved[col] = cuts[4]
	if rt.route(row) != 4 || rt.route(moved) != 5 {
		t.Fatalf("rows on either side of cut 4 route to %d and %d", rt.route(row), rt.route(moved))
	}
	v4, v5 := rt.ShardVersion(4), rt.ShardVersion(5)
	for _, s := range []interface {
		Insert([]float64) error
		Update(old, new []float64) error
	}{rt, tc.oracle} {
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(row, moved); err != nil {
			t.Fatal(err)
		}
	}
	if rt.ShardVersion(4) == v4 || rt.ShardVersion(5) == v5 {
		t.Error("an update across cut 4 did not write both shards")
	}
	around := index.Full(4)
	around.Min[col], around.Max[col] = cuts[3], cuts[5]
	same("after an update across a cut", around, index.RowsState{Keep: -1})
	same("after an update across a cut", index.Full(4), index.RowsState{Keep: -1})
	if err := rt.Delete(row); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("the moved row's old image still deletes: %v", err)
	}
}

// Mutations through the router must keep the cluster equivalent to an
// oracle receiving the same mutations — including a cross-shard update
// and the engine's logical error types surviving the network.
func TestClusterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	table := testTable(rng, 3000)
	tc := startCluster(t, table, 8, 3, 2)

	version0 := tc.router.ShardVersion(0)
	var inserted [][]float64
	for i := 0; i < 50; i++ {
		row := []float64{rng.Float64() * 1000, rng.Float64() * 2100, math.Round(rng.Float64() * 100), float64(rng.Intn(8))}
		if err := tc.router.Insert(row); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := tc.oracle.Insert(row); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, row)
	}
	for i := 0; i < 20; i++ {
		row := table.Row(rng.Intn(table.Len()))
		rowCopy := append([]float64(nil), row...)
		if err := tc.router.Delete(rowCopy); err != nil && !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("delete %d: %v", i, err)
		} else if err2 := tc.oracle.Delete(rowCopy); (err == nil) != (err2 == nil) {
			t.Fatalf("delete %d: cluster err %v, oracle err %v", i, err, err2)
		}
	}
	// Cross-shard update: the old and new rows almost surely hash apart.
	old := inserted[0]
	new1 := []float64{old[0] + 1, old[1] + 1, old[2], old[3]}
	if err := tc.router.Update(old, new1); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := tc.oracle.Update(old, new1); err != nil {
		t.Fatal(err)
	}

	// Logical errors round-trip the wire with their types intact.
	if err := tc.router.Delete([]float64{-1, -2, -3, -4}); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("deleting a missing row: got %v, want core.ErrNotFound", err)
	}
	if err := tc.router.Insert([]float64{1, 2}); err == nil {
		t.Error("short row accepted")
	}
	if err := tc.router.Insert([]float64{math.NaN(), 1, 2, 3}); err == nil {
		t.Error("NaN row accepted")
	}

	bumped := false
	for g := 0; g < tc.router.NumShards(); g++ {
		if tc.router.ShardVersion(g) > 0 {
			bumped = true
		}
	}
	_ = version0
	if !bumped {
		t.Error("no shard version bumped by mutations")
	}

	for q := 0; q < 15; q++ {
		r := workload.RandRect(rng, tc.table)
		got, _ := collectRouter(t, tc.router, r, index.Spec{})
		want := collectOracle(tc.oracle, r, index.Spec{})
		sortRows(got)
		sortRows(want)
		if !rowsEqual(got, want) {
			t.Fatalf("after mutations, query %d: cluster %d rows, oracle %d", q, len(got), len(want))
		}
	}
}

// Killing a node mid-test must not change any answer: every shard fails
// over to its surviving replica.
func TestClusterFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tc := startCluster(t, testTable(rng, 4000), 16, 3, 2)

	// Warm queries against the full cluster first.
	r := workload.RandRect(rng, tc.table)
	collectRouter(t, tc.router, r, index.Spec{})

	tc.nodes[tc.addrs[0]].Close()

	for q := 0; q < 15; q++ {
		r := workload.RandRect(rng, tc.table)
		got, complete := collectRouter(t, tc.router, r, index.Spec{})
		want := collectOracle(tc.oracle, r, index.Spec{})
		if !complete {
			t.Fatalf("query %d incomplete after failover", q)
		}
		sortRows(got)
		sortRows(want)
		if !rowsEqual(got, want) {
			t.Fatalf("query %d after node kill: cluster %d rows, oracle %d", q, len(got), len(want))
		}
	}

	// Aggregates fail over too.
	st, complete, err := tc.router.ExecAgg(index.Rect{
		Min: []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		Max: []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)},
	}, index.Spec{}, index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
	if err != nil || !complete {
		t.Fatalf("agg after node kill: complete=%v err=%v", complete, err)
	}
	if st.All.Count != int64(tc.oracle.Len()) {
		t.Errorf("agg count after node kill: %d, oracle %d", st.All.Count, tc.oracle.Len())
	}
}

// A replica may apply a mutation and drop the connection before its ack.
// The router must still record the write, or its result cache would serve
// the pre-write answer until the next write to that shard. The fake node
// here answers the handshake and Stats, reads the Mutate frame and hangs up.
func TestRouterRecordsUnackedWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer raw.Close()
				c := wire.NewConn(raw)
				if wire.ServerHandshake(c, wire.Welcome{Dims: 4, Shards: 1}) != nil {
					return
				}
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					st, ok := m.(*wire.Stats)
					if !ok {
						return // a Mutate: read, then the connection drops
					}
					if c.Send(&wire.StatsRes{ID: st.ID, Hosted: []int{0}, ShardRows: []int64{0}}) != nil {
						return
					}
				}
			}()
		}
	}()
	rt, err := NewRouter([]string{ln.Addr().String()}, 1, 1, WithHedging(false))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	row := []float64{1, 2, 3, 4}
	before := rt.ShardVersion(0)
	if err := rt.Insert(row); err == nil {
		t.Fatal("insert acknowledged by a node that hung up")
	}
	if rt.ShardVersion(0) == before {
		t.Fatal("the router's version did not move for a write the node may have applied")
	}
	if _, touched := rt.Touched(0, before, index.Point(row)); !touched {
		t.Error("the unacknowledged write's row does not touch a rectangle holding it")
	}
	away := index.Point([]float64{5, 6, 7, 8})
	if _, touched := rt.Touched(0, before, away); touched {
		t.Error("the unacknowledged write touches a rectangle far from its row")
	}
}

// With every replica shedding, the router surfaces an OverloadError
// carrying the maximum Retry-After across replicas; with only one node
// shedding (rf=2), queries keep succeeding on the other replica.
func TestClusterOverloadPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tc := startCluster(t, testTable(rng, 3000), 8, 2, 2)
	r := workload.RandRect(rng, tc.table)

	tc.nodes[tc.addrs[0]].SetDraining(100 * time.Millisecond)
	if _, complete := collectRouter(t, tc.router, r, index.Spec{}); !complete {
		t.Fatal("query incomplete with one replica draining")
	}

	tc.nodes[tc.addrs[1]].SetDraining(250 * time.Millisecond)
	_, err := tc.router.Exec(r, index.Spec{}, func([]float64) bool { return true })
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v, want *OverloadError", err)
	}
	if oe.RetryAfter != 250*time.Millisecond {
		t.Errorf("RetryAfter = %s, want the max across replicas (250ms)", oe.RetryAfter)
	}

	// Mutations shed the same way.
	err = tc.router.Insert([]float64{1, 2, 3, 4})
	if !errors.As(err, &oe) {
		t.Fatalf("insert under full overload: got %v, want *OverloadError", err)
	}

	tc.nodes[tc.addrs[0]].SetDraining(0)
	tc.nodes[tc.addrs[1]].SetDraining(0)
	if _, complete := collectRouter(t, tc.router, r, index.Spec{}); !complete {
		t.Fatal("query incomplete after draining lifted")
	}
}

// Regression: when every replica of a shard sheds, the shard's hint is the
// largest across the replicas tried, whichever was tried first — the router
// used to keep only the hint of the replica it tried last, so a ring that
// put the slowest-draining node first on every shard lost it. Both nodes
// host every shard, so the try order is forced here rather than left to the
// hash of two random ports.
func TestClusterRetryAfterIsMaxAcrossAttempts(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tc := startCluster(t, testTable(rng, 2000), 8, 2, 2, WithHedging(false))
	tc.nodes[tc.addrs[0]].SetDraining(1500 * time.Millisecond)
	tc.nodes[tc.addrs[1]].SetDraining(3500 * time.Millisecond)
	for _, order := range [][]string{{tc.addrs[0], tc.addrs[1]}, {tc.addrs[1], tc.addrs[0]}} {
		for g := range tc.router.replicas {
			tc.router.replicas[g] = order
		}
		_, rowsErr := tc.router.Exec(index.Full(4), index.Spec{}, func([]float64) bool { return true })
		_, _, aggErr := tc.router.ExecAgg(index.Full(4), index.Spec{}, index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
		for _, err := range []error{rowsErr, aggErr} {
			var oe *OverloadError
			if !errors.As(err, &oe) {
				t.Fatalf("tried %v: got %v, want *OverloadError", order, err)
			}
			if oe.RetryAfter != 3500*time.Millisecond {
				t.Errorf("tried %v: RetryAfter = %s, want the largest hint (3.5s)", order, oe.RetryAfter)
			}
		}
	}
}

// An injected straggler must not hold queries hostage when hedging is on:
// the backup replica answers while the slow node sleeps.
func TestClusterHedging(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tc := startCluster(t, testTable(rng, 3000), 8, 2, 2, WithHedgeDelay(10*time.Millisecond))
	r := workload.RandRect(rng, tc.table)
	want := collectOracle(tc.oracle, r, index.Spec{})

	tc.nodes[tc.addrs[0]].SetDelay(3 * time.Second)
	start := time.Now()
	got, complete := collectRouter(t, tc.router, r, index.Spec{})
	elapsed := time.Since(start)
	if !complete {
		t.Fatal("hedged query incomplete")
	}
	sortRows(got)
	sortRows(want)
	if !rowsEqual(got, want) {
		t.Fatalf("hedged query: %d rows, oracle %d", len(got), len(want))
	}
	if elapsed > 2*time.Second {
		t.Errorf("hedged query took %s; the straggler (3s) was not hedged around", elapsed)
	}
	tc.nodes[tc.addrs[0]].SetDelay(0)
}

// Regression: a hedge launched at a dead node used to fail its shards on the
// spot — no replica left to try — although the slow primary it was racing
// was still going to answer.
func TestClusterHedgeToDeadNode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tc := startCluster(t, testTable(rng, 3000), 8, 2, 2, WithHedgeDelay(time.Millisecond))
	r := workload.RandRect(rng, tc.table)
	want := collectOracle(tc.oracle, r, index.Spec{})

	// Node 0 is slow enough for every hedge to fire; node 1, the only other
	// replica of everything, is gone.
	tc.nodes[tc.addrs[0]].SetDelay(100 * time.Millisecond)
	tc.nodes[tc.addrs[1]].Close()
	for i := 0; i < 3; i++ {
		got, complete := collectRouter(t, tc.router, r, index.Spec{})
		if !complete {
			t.Fatal("query incomplete")
		}
		sortRows(got)
		sortRows(want)
		if !rowsEqual(got, want) {
			t.Fatalf("query %d: %d rows, oracle %d", i, len(got), len(want))
		}
	}
}

// A node that accepts connections but never answers — a stopped process —
// costs a query at most the handshake timeout, with hedging or without:
// the handshake gives up, and a hedge or failover to the other replica
// answers. Stats reports the node down in the same bound.
func TestClusterWedgedHandshake(t *testing.T) {
	for _, hedge := range []bool{true, false} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			tc := startCluster(t, testTable(rng, 3000), 8, 2, 2, WithHedging(hedge))
			addr := tc.addrs[0]
			tc.nodes[addr].Close()
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			var held []net.Conn // accepted, never written to
			acceptDone := make(chan struct{})
			go func() {
				defer close(acceptDone)
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					held = append(held, c)
				}
			}()
			t.Cleanup(func() {
				ln.Close()
				<-acceptDone
				for _, c := range held {
					c.Close()
				}
			})

			const bound = 5 * time.Second
			for q := 0; q < 4; q++ {
				r := workload.RandRect(rng, tc.table)
				want := collectOracle(tc.oracle, r, index.Spec{})
				var got [][]float64
				var complete bool
				var err error
				elapsed := within(t, bound, func() {
					complete, err = tc.router.Exec(r, index.Spec{}, func(row []float64) bool {
						got = append(got, row)
						return true
					})
				})
				if err != nil || !complete {
					t.Fatalf("query %d: complete=%v err=%v after %s", q, complete, err, elapsed)
				}
				sortRows(got)
				sortRows(want)
				if !rowsEqual(got, want) {
					t.Fatalf("query %d: %d rows, oracle %d", q, len(got), len(want))
				}
			}
			var st ClusterStats
			within(t, bound, func() { st = tc.router.Stats() })
			if st.Rows != int64(tc.table.Len()) || st.Nodes[0].Addr != addr || st.Nodes[0].Err == "" {
				t.Errorf("stats: %d rows (want %d), first node %+v", st.Rows, tc.table.Len(), st.Nodes[0])
			}
		})
	}
}

// within runs f and fails the test if it has not returned after d. It
// reports how long f took.
func within(t *testing.T, d time.Duration, f func()) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		return time.Since(start)
	case <-time.After(d):
		t.Fatalf("still running after %s", d)
		return d
	}
}

// TestNodeRequestPanic: a request that panics on a node is answered with
// an Internal error frame for its id, and the node and the connection go
// on: a later request on the same connection is answered in full.
func TestNodeRequestPanic(t *testing.T) {
	table := testTable(rand.New(rand.NewSource(11)), 3000)
	engines, err := BuildShards(table, []int{0, 1}, 2, coreOptions(), localShardOptions())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(engines, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A zero Sharded has no shard slots, so every query on it panics in
	// the fan-out.
	n.shards[1] = new(shard.Sharded)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve(ln)
	defer n.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := wire.NewConn(raw)
	if _, err := wire.ClientHandshake(c); err != nil {
		t.Fatal(err)
	}
	full := index.Full(table.Dims())
	query := func(id uint64, g int) []wire.Message {
		t.Helper()
		if err := c.Send(&wire.Query{ID: id, Shards: []int{g}, Min: full.Min, Max: full.Max, Keep: 1}); err != nil {
			t.Fatal(err)
		}
		var got []wire.Message
		for {
			raw.SetReadDeadline(time.Now().Add(10 * time.Second))
			m, err := c.Recv()
			if err != nil {
				t.Fatalf("request %d: %v after %d frames", id, err, len(got))
			}
			got = append(got, m)
			switch m.(type) {
			case *wire.Error, *wire.Done:
				return got
			}
		}
	}

	got := query(1, 1)
	if e, ok := got[len(got)-1].(*wire.Error); !ok || e.ID != 1 || e.Code != wire.CodeInternal {
		t.Fatalf("panicking request answered %#v, want an Internal error for id 1", got[len(got)-1])
	}
	got = query(2, 0)
	eof, ok := got[len(got)-2].(*wire.ShardEOF)
	if done, _ := got[len(got)-1].(*wire.Done); !ok || done == nil || done.ID != 2 || !done.Complete ||
		eof.Rows != int64(engines[0].Len()) {
		t.Fatalf("request after the panic answered %#v, want shard 0's %d rows and a complete Done", got, engines[0].Len())
	}
}

// Stats must count every logical row exactly once despite replication.
func TestClusterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	table := testTable(rng, 2500)
	tc := startCluster(t, table, 8, 3, 2)
	st := tc.router.Stats()
	if st.Rows != int64(table.Len()) {
		t.Errorf("stats rows %d, want %d", st.Rows, table.Len())
	}
	if st.Unanswered != 0 {
		t.Errorf("%d shards unanswered", st.Unanswered)
	}
	if len(st.Nodes) != 3 {
		t.Errorf("%d nodes in stats, want 3", len(st.Nodes))
	}
}

// BenchmarkRouterExecRows is cluster-scatter's shape in process: two
// loopback nodes, eight global shards at rf 2, rectangles matching about
// 200 rows each, and replies keeping up to 1 000 rows: scatter, wire
// framing and the shard-order merge per query. It reports the global
// shards asked per query (shards/op) and the rows the nodes shipped
// (rows_shipped/op).
// BenchmarkRouterExecRows asks for about 200 rows per rectangle, bounded
// on the range column (pruned to one or two shards) or on column 0 (every
// shard asked when column 0 is not the one cut, as at seed 20).
func BenchmarkRouterExecRows(b *testing.B) {
	const rows = 20000
	rng := rand.New(rand.NewSource(20))
	tc := startCluster(b, testTable(rng, rows), 8, 2, 2)
	for _, col := range []int{tc.router.ranges.Col, 0} {
		vals := tc.table.Column(col)
		sort.Float64s(vals)
		rects := make([]index.Rect, 64)
		for i := range rects {
			r := index.Full(4)
			lo := rng.Intn(rows - 200)
			r.Min[col], r.Max[col] = vals[lo], vals[lo+199]
			rects[i] = r
		}
		name := "range-column"
		if col != tc.router.ranges.Col {
			name = "column-0"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			probed, shipped := obs.ClusterShardsProbed.Value(), obs.ClusterRowsReceived.Value()
			for i := 0; i < b.N; i++ {
				if _, _, err := tc.router.ExecRows(rects[i%len(rects)], index.Spec{}, index.RowsState{Keep: 1000}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(obs.ClusterShardsProbed.Value()-probed)/float64(b.N), "shards/op")
			b.ReportMetric(float64(obs.ClusterRowsReceived.Value()-shipped)/float64(b.N), "rows_shipped/op")
		})
	}
}
