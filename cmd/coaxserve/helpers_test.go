package main

// Shared fixtures for the HTTP and cluster tests: an in-process cluster, the
// single-process oracle engine, and the wire form of a workload rectangle.

import (
	"math"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/serve"
	"github.com/coax-index/coax/internal/shard"
)

// testCluster is an in-process cluster: n nodes on loopback listeners.
// overhead sums the index directory bytes of every node's engines.
type testCluster struct {
	nodes    []*cluster.Node
	addrs    []string
	overhead int64
}

// startTestCluster builds and serves an n-node cluster over tab: each
// node materializes exactly the global shards consistent hashing assigns
// it, identical to what n separate processes would build.
func startTestCluster(t *testing.T, tab *coax.Table, shards, n, rf int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	t.Cleanup(func() {
		for _, n := range tc.nodes {
			n.Close()
		}
	})
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.addrs = append(tc.addrs, ln.Addr().String())
	}
	ring, err := cluster.NewRing(tc.addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, addr := range tc.addrs {
		engines, err := cluster.BuildShards(tab, ring.HostedShards(addr, shards, rf), shards, coax.DefaultOptions(), coax.DefaultShardOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			tc.overhead += e.MemoryOverhead()
		}
		node, err := cluster.NewNode(engines, shards)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)
		go node.Serve(lns[i])
	}
	return tc
}

// buildOracle builds the single-process reference engine over the same
// table a cluster serves — the comparison target for tests and smoke
// checks: a cluster answer must be a multiset-identical to the oracle's,
// and with as many shards as the cluster has global shards, identical.
func buildOracle(tab *coax.Table, shards, workers int) (*shard.Sharded, error) {
	so := coax.DefaultShardOptions()
	so.NumShards = shards
	so.Workers = workers
	return shard.Build(tab, coax.DefaultOptions(), so)
}

// rectToRequest converts a workload rectangle into its wire form, counting
// only (limit 0).
func rectToRequest(r index.Rect) rectRequest {
	lim := 0
	req := rectRequest{
		Limit: &lim,
		Min:   make([]*float64, len(r.Min)),
		Max:   make([]*float64, len(r.Max)),
	}
	for i := range r.Min {
		if !math.IsInf(r.Min[i], -1) {
			v := r.Min[i]
			req.Min[i] = &v
		}
		if !math.IsInf(r.Max[i], 1) {
			v := r.Max[i]
			req.Max[i] = &v
		}
	}
	return req
}

// testIndex builds the 8000-row, 4-shard OSM index most HTTP tests serve.
func testIndex(t testing.TB) *coax.Index {
	t.Helper()
	so := coax.DefaultShardOptions()
	so.NumShards = 4
	idx, err := shard.Build(coax.GenerateOSM(coax.DefaultOSMConfig(8000)), coax.DefaultOptions(), so)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	return idx
}

// testBackend wraps idx the way serve mode does, compactor idle.
func testBackend(idx *coax.Index) *localBackend {
	return newLocalBackend(idx, nil, coax.DefaultThresholds(), 0)
}

// serveFront serves be behind the hardening layers the arguments switch on.
func serveFront(t *testing.T, be backend, cacheSize int, adm *serve.Admission) *httptest.Server {
	t.Helper()
	f := &front{be: be, start: time.Now(), adm: adm}
	if cacheSize > 0 {
		f.qcache = serve.NewQueryCache(be, cacheSize)
	}
	srv := httptest.NewServer(newMux(f))
	t.Cleanup(srv.Close)
	return srv
}
