package main

// Multi-process cluster integration test: real node processes behind real
// TCP sockets, an in-process router (so the race detector watches the
// scatter-gather machinery), and a single-process shard.Sharded oracle
// built over the identical table. Every distributed answer must be
// multiset-identical to the oracle's — including after one node process is
// SIGKILLed mid-test.
//
// The node processes are this test binary re-exec'ed: TestMain intercepts
// COAXSERVE_NODE_ARGS and runs cmdNode instead of the test suite, the
// same re-exec idiom the standard library uses for exec tests.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

func TestMain(m *testing.M) {
	if args := os.Getenv("COAXSERVE_NODE_ARGS"); args != "" {
		if err := cmdNode(strings.Fields(args)); err != nil {
			fmt.Fprintln(os.Stderr, "coaxserve node:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reserveAddrs picks n free loopback ports by binding and releasing them.
// The window between release and the child's bind is a benign race on a
// loopback interface.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// waitForRouter retries NewRouter until every node process has built its
// shards and is accepting connections.
func waitForRouter(t *testing.T, addrs []string, shards, rf int, timeout time.Duration) *cluster.Router {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		rt, err := cluster.NewRouter(addrs, shards, rf)
		if err == nil {
			return rt
		}
		lastErr = err
		time.Sleep(250 * time.Millisecond)
	}
	t.Fatalf("cluster did not come up within %v: %v", timeout, lastErr)
	return nil
}

// collectSorted gathers every row a query execution yields into a flat,
// deterministically sorted buffer for multiset comparison.
func sortFlatRows(flat []float64, dims int) {
	n := len(flat) / dims
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dims : (i+1)*dims]
	}
	sort.Slice(rows, func(a, b int) bool {
		for d := 0; d < dims; d++ {
			if rows[a][d] != rows[b][d] {
				return rows[a][d] < rows[b][d]
			}
		}
		return false
	})
	out := make([]float64, 0, len(flat))
	for _, r := range rows {
		out = append(out, r...)
	}
	copy(flat, out)
}

func flatRowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClusterMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	const (
		rows        = 20000
		gshards     = 12
		rf          = 2
		numNodes    = 3
		localShards = 2 // accepted and ignored by node, which still takes the flag
	)
	addrs := reserveAddrs(t, numNodes)
	peers := strings.Join(addrs, ",")

	procs := make([]*exec.Cmd, numNodes)
	for i, a := range addrs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf(
			"COAXSERVE_NODE_ARGS=-addr %s -peers %s -shards %d -replication %d -dataset osm -rows %d -local-shards %d",
			a, peers, gshards, rf, rows, localShards))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		procs[i] = cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
			p.Wait()
		}
	})

	rt := waitForRouter(t, addrs, gshards, rf, 120*time.Second)
	defer rt.Close()

	// Every node reports its start-up build; the router's verbose /healthz
	// names the slowest.
	_, body := clusterBackend{rt}.health(true, 0)
	h := body.(routerHealthz)
	for _, n := range rt.Stats().Nodes {
		if n.BuildS <= 0 || n.BuildS > h.Startup.BuildS {
			t.Errorf("node %s reports build_s %v; /healthz startup.build_s %v", n.Addr, n.BuildS, h.Startup.BuildS)
		}
	}

	// The oracle: the exact table every node generated, on one engine with
	// the cluster's partition, so aggregates agree bit for bit.
	tab, err := makeTable("osm", rows)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := buildOracle(tab, gshards, 0)
	if err != nil {
		t.Fatal(err)
	}
	dims := oracle.Dims()

	collectRouter := func(r index.Rect, limit int) ([]float64, bool) {
		t.Helper()
		var flat []float64
		complete, err := rt.Exec(r, index.Spec{Limit: limit}, func(row []float64) bool {
			flat = append(flat, row...)
			return true
		})
		if err != nil {
			t.Fatalf("router Exec: %v", err)
		}
		return flat, complete
	}
	collectOracle := func(r index.Rect) []float64 {
		var flat []float64
		if _, err := coax.FromRect(r).Run(oracle, func(row []float64) bool { flat = append(flat, row...); return true }); err != nil {
			t.Fatalf("oracle Run: %v", err)
		}
		return flat
	}
	checkQueries := func(label string, n int, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			r := workload.RandRect(rng, tab)
			got, complete := collectRouter(r, 0)
			want := collectOracle(r)
			if !complete {
				t.Fatalf("%s query %d: distributed scan incomplete", label, i)
			}
			sortFlatRows(got, dims)
			sortFlatRows(want, dims)
			if !flatRowsEqual(got, want) {
				t.Fatalf("%s query %d: cluster answered %d rows, oracle %d (or row values differ)",
					label, i, len(got)/dims, len(want)/dims)
			}
		}
	}

	t.Run("QueryOracle", func(t *testing.T) { checkQueries("initial", 20, 11) })

	t.Run("LimitK", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 10; i++ {
			r := workload.RandRect(rng, tab)
			all := collectOracle(r)
			total := len(all) / dims
			if total < 2 {
				continue
			}
			k := 1 + rng.Intn(total-1)
			got, _ := collectRouter(r, k)
			if len(got)/dims != k {
				t.Fatalf("Limit(%d) returned %d rows", k, len(got)/dims)
			}
			// Every limited row must exist in the oracle's multiset.
			remaining := map[string]int{}
			for off := 0; off < len(all); off += dims {
				remaining[fmt.Sprint(all[off:off+dims])]++
			}
			for off := 0; off < len(got); off += dims {
				key := fmt.Sprint(got[off : off+dims])
				if remaining[key] == 0 {
					t.Fatalf("Limit(%d) returned a row the oracle never matched: %v", k, got[off:off+dims])
				}
				remaining[key]--
			}
		}
	})

	checkAggs := func(label string, n int, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		specs := []index.AggSpec{
			{Op: index.AggCount, Col: -1, Group: -1},
			{Op: index.AggSum, Col: 0, Group: -1},
			{Op: index.AggAvg, Col: 2, Group: -1},
			{Op: index.AggMin, Col: 1, Group: -1},
		}
		for i := 0; i < n; i++ {
			r := workload.RandRect(rng, tab)
			for _, aspec := range specs {
				got, complete, err := rt.ExecAgg(r, index.Spec{}, aspec)
				if err != nil || !complete {
					t.Fatalf("%s agg %v: err=%v complete=%v", label, aspec, err, complete)
				}
				want, _ := oracle.ExecAgg(r, index.Spec{}, aspec, nil)
				if got.All != want.All {
					t.Fatalf("%s agg %v: cell %+v vs oracle %+v", label, aspec, got.All, want.All)
				}
			}
		}
	}

	t.Run("AggregateOracle", func(t *testing.T) { checkAggs("initial", 8, 13) })

	t.Run("Mutations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		// Inserts: fresh rows derived from real ones, mirrored on the oracle.
		for i := 0; i < 30; i++ {
			row := append([]float64(nil), tab.Row(rng.Intn(tab.Len()))...)
			row[0] += 0.25 + float64(i)
			if err := rt.Insert(row); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			if err := oracle.Insert(row); err != nil {
				t.Fatalf("oracle insert %d: %v", i, err)
			}
		}
		// Deletes of existing rows.
		for i := 0; i < 15; i++ {
			row := append([]float64(nil), tab.Row(rng.Intn(tab.Len()))...)
			cerr := rt.Delete(row)
			oerr := oracle.Delete(row)
			if (cerr == nil) != (oerr == nil) {
				t.Fatalf("delete %d: cluster err %v, oracle err %v", i, cerr, oerr)
			}
		}
		// A cross-shard update (the delete+insert decomposition).
		old := append([]float64(nil), tab.Row(7)...)
		upd := append([]float64(nil), old...)
		upd[0] += 1234.5
		if err := rt.Update(old, upd); err != nil {
			if errors.Is(err, core.ErrNotFound) {
				// A delete above may have removed row 7 first; mirror that.
				if oerr := oracle.Update(old, upd); !errors.Is(oerr, core.ErrNotFound) {
					t.Fatalf("update: cluster ErrNotFound, oracle %v", oerr)
				}
			} else {
				t.Fatalf("update: %v", err)
			}
		} else if err := oracle.Update(old, upd); err != nil {
			t.Fatalf("oracle update: %v", err)
		}
		// Logical errors must round-trip the wire as engine error types.
		if err := rt.Delete(make([]float64, dims)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("deleting an absent row: got %v, want ErrNotFound", err)
		}
		if err := rt.Insert([]float64{math.NaN()}); err == nil {
			t.Fatal("inserting a short NaN row succeeded")
		}
		checkQueries("post-mutation", 15, 15)
		checkAggs("post-mutation", 5, 16)
	})

	t.Run("NodeKilledMidTest", func(t *testing.T) {
		if err := procs[0].Process.Kill(); err != nil {
			t.Fatalf("killing node 0: %v", err)
		}
		procs[0].Wait()
		// Every global shard still has a live replica (rf=2), so answers
		// must stay oracle-identical — served via failover.
		checkQueries("post-kill", 12, 17)
		checkAggs("post-kill", 4, 18)
	})
}

// TestClusterNodeSnapshotIn boots a multi-process cluster whose nodes all
// build from the same v3 (memory-mapped, compressed) snapshot via `node
// -in` instead of a synthetic dataset, and checks distributed answers
// against an oracle built over the snapshot's table. This is the
// operational path for serving a prepared dataset across a fleet: write
// one v3 file, point every node at it.
func TestClusterNodeSnapshotIn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	const (
		rows        = 8000
		gshards     = 8
		rf          = 2
		numNodes    = 2
		localShards = 2
	)
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(rows))
	so := coax.DefaultShardOptions()
	so.NumShards = 4
	idx, err := shard.Build(tab, coax.DefaultOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := fmt.Sprintf("%s/cluster.v3", t.TempDir())
	if err := coax.SaveShardedFileV3(snapPath, idx, true); err != nil {
		t.Fatal(err)
	}

	addrs := reserveAddrs(t, numNodes)
	peers := strings.Join(addrs, ",")
	procs := make([]*exec.Cmd, numNodes)
	for i, a := range addrs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf(
			"COAXSERVE_NODE_ARGS=-addr %s -peers %s -shards %d -replication %d -in %s -local-shards %d",
			a, peers, gshards, rf, snapPath, localShards))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		procs[i] = cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
			p.Wait()
		}
	})

	rt := waitForRouter(t, addrs, gshards, rf, 120*time.Second)
	defer rt.Close()

	// The oracle serves the same table the snapshot encodes.
	oracle, err := buildOracle(tab, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dims := oracle.Dims()

	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 15; i++ {
		r := workload.RandRect(rng, tab)
		var got []float64
		complete, err := rt.Exec(r, index.Spec{}, func(row []float64) bool {
			got = append(got, row...)
			return true
		})
		if err != nil || !complete {
			t.Fatalf("query %d: err=%v complete=%v", i, err, complete)
		}
		var want []float64
		if _, err := coax.FromRect(r).Run(oracle, func(row []float64) bool { want = append(want, row...); return true }); err != nil {
			t.Fatalf("oracle Run: %v", err)
		}
		sortFlatRows(got, dims)
		sortFlatRows(want, dims)
		if !flatRowsEqual(got, want) {
			t.Fatalf("query %d: cluster answered %d rows, oracle %d (or row values differ)",
				i, len(got)/dims, len(want)/dims)
		}
		agg, complete, err := rt.ExecAgg(r, index.Spec{}, index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
		if err != nil || !complete {
			t.Fatalf("agg %d: err=%v complete=%v", i, err, complete)
		}
		if int(agg.All.Count) != len(want)/dims {
			t.Fatalf("agg %d: count %d, oracle %d", i, agg.All.Count, len(want)/dims)
		}
	}
}
