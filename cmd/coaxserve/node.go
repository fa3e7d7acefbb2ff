package main

// The node mode of the distributed deployment: one process hosting its
// consistent-hash share of the cluster's global shards behind the binary
// wire protocol (internal/wire), serving scatter-gather requests from any
// number of router processes (see router.go).
//
// Every node derives its shard assignment from the same inputs — the full
// peer list, the global shard count K, and the replication factor — so no
// coordinator hands out placements: NewRing(peers).HostedShards(self) is
// the whole membership protocol. The synthetic dataset is deterministic
// and rows route to global shards by value (cluster.RouteRow), so every
// replica of a shard materializes identical rows without talking to
// anyone.

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
)

func cmdNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7401", "wire-protocol listen address")
		name   = fs.String("name", "", "this node's identity in -peers (default: -addr); routers must dial it under exactly this address")
		peers  = fs.String("peers", "", "comma-separated addresses of every node in the cluster, including this one (default: just -name)")
		shards = fs.Int("shards", 16, "cluster-wide global shard count K; must match every node and router")
		rf     = fs.Int("replication", 2, "replication factor; must match the peers and routers")
		ds     = fs.String("dataset", "osm", "synthetic dataset: osm|airline (identical on every node; rows route by value)")
		rows   = fs.Int("rows", 100000, "synthetic dataset size")
		in     = fs.String("in", "", "build this node's shards from a v3 snapshot (sharded or single-index; every node must use the same file) instead of a synthetic dataset; `coaxstore convert` rewrites a v1/v2 file")

		localShards = fs.Int("local-shards", 2, "local sub-shards per hosted global shard (the in-process fan-out width)")
		workers     = fs.Int("workers", 0, "query fan-out workers per local engine (0: one per CPU)")

		maxInflight  = fs.Int("max-inflight", 0, "admission control: requests executing concurrently before new ones queue (0 disables)")
		maxQueue     = fs.Int("max-queue", -1, "admission control: requests allowed to wait for a slot before shedding (-1: twice -max-inflight)")
		queueTimeout = fs.Duration("queue-timeout", 100*time.Millisecond, "admission control: longest a queued request waits before shedding")

		straggler = fs.Duration("straggler", 0, "fault injection: delay every request by this much (demonstrates hedged reads)")
	)
	fs.Parse(args)

	self := *name
	if self == "" {
		self = *addr
	}
	peerList := splitAddrs(*peers)
	if len(peerList) == 0 {
		peerList = []string{self}
	}
	found := false
	for _, p := range peerList {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("node %s is not in -peers %q; every node must appear in the shared peer list", self, *peers)
	}

	ring, err := cluster.NewRing(peerList, 0)
	if err != nil {
		return err
	}
	hosted := ring.HostedShards(self, *shards, *rf)
	if len(hosted) == 0 {
		return fmt.Errorf("placement assigns node %s no shards (K=%d, rf=%d, %d peers)", self, *shards, *rf, len(peerList))
	}

	var tab *coax.Table
	if *in != "" {
		tab, err = tableFromSnapshot(*in, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "node %s: materialized %d rows × %d dims from snapshot %s\n",
			self, tab.Len(), tab.Dims(), *in)
	} else {
		tab, err = makeTable(*ds, *rows)
		if err != nil {
			return err
		}
	}
	so := coax.DefaultShardOptions()
	so.NumShards = *localShards
	so.Workers = *workers
	t0 := time.Now()
	engines, err := cluster.BuildShards(tab, hosted, *shards, coax.DefaultOptions(), so)
	if err != nil {
		return err
	}

	var opts []cluster.NodeOption
	if adm := newAdmission(*maxInflight, *maxQueue, *queueTimeout); adm != nil {
		opts = append(opts, cluster.WithAdmission(adm))
	}
	node, err := cluster.NewNode(engines, *shards, opts...)
	if err != nil {
		return err
	}
	if *straggler > 0 {
		node.SetDelay(*straggler)
		fmt.Fprintf(os.Stderr, "fault injection: delaying every request by %v\n", *straggler)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The ready line is a protocol: the integration test and clustersmoke.sh
	// wait for it before wiring a router up.
	fmt.Printf("node %s ready: %d/%d global shards (%d rows) built in %v, rf=%d, %d peer(s)\n",
		self, len(hosted), *shards, node.Rows(), time.Since(t0).Round(time.Millisecond), *rf, len(peerList))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "node: shutting down")
		node.Close()
	}()
	if err := node.Serve(ln); err != net.ErrClosed {
		return err
	}
	return nil
}

// tableFromSnapshot materializes the live rows of a snapshot into a table
// the shard-placement pipeline can split. A v3 file is memory-mapped only
// for the duration of the scan — nodes re-partition rows by value into
// their hosted global shards, so the rows must land on the heap anyway.
// Placement hashes row values, not row order, so every node loading the
// same file materializes identical shard contents.
func tableFromSnapshot(path string, workers int) (*coax.Table, error) {
	idx, sn, err := openSnapshot(path, workers)
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	tab := coax.NewTable(idx.Columns())
	tab.Grow(idx.Len())
	if _, err := coax.FromRect(coax.FullRect(idx.Dims())).Run(idx, func(row []float64) bool {
		tab.Append(row) // Append copies the values; the mapping can close after
		return true
	}); err != nil {
		return nil, err
	}
	if err := sn.PageErr(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return tab, nil
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
