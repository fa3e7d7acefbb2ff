// Command coaxserve serves a sharded COAX index over HTTP/JSON, from one
// process or from a cluster.
//
// Usage:
//
//	coaxserve serve -dataset osm -rows 500000 -shards 8 -addr :8080 -save osm-sharded.coax
//	coaxserve serve -in osm-sharded.coax -compact-interval 30s
//	coaxserve serve -in osm.v3 -addr :8080      # v3 snapshots serve memory-mapped
//	coaxserve serve -in osm-sharded.coax -debug-addr :6060 -slowlog-threshold 50ms -access-log
//	coaxserve serve -in osm-sharded.coax -cache-size 8192 -max-inflight 64 -queue-timeout 100ms
//	coaxserve node -addr 127.0.0.1:7401 -peers 127.0.0.1:7401,127.0.0.1:7402 -shards 16 -replication 2
//	coaxserve node -addr 127.0.0.1:7401 -peers ... -in osm.v3   # every node builds from one snapshot
//	coaxserve router -addr :8080 -nodes 127.0.0.1:7401,127.0.0.1:7402 -shards 16 -replication 2
//
// The serve mode loads a sharded snapshot (or builds one over a synthetic
// dataset at startup); the router mode scatter-gathers across node
// processes (internal/cluster: consistent-hash placement, hedged replica
// reads, circuit breaking, failover). Both answer the same API through the
// same handlers:
//
//	GET  /healthz  liveness probe; ?verbose=1 adds the backend's shape and
//	               how long its start-up build or snapshot open took
//	GET  /stats    index or cluster shape, result-cache and admission
//	               counters; serve adds lifecycle health and staleness
//	GET  /metrics  Prometheus text exposition of every metric family
//	GET  /debug/vars
//	               the same registry as an expvar JSON map (under "coax")
//	POST /query    {"min":[...],"max":[...],"limit":100} — null bounds are
//	               unconstrained; responds {"count":N,"rows":[[...],...]}.
//	               "early":true stops the scan once limit rows are found
//	               (count then equals rows returned). "agg" switches to an
//	               aggregation pushdown: {"agg":{"op":"sum","col":"lon"}}
//	               (ops count/sum/min/max/avg, "dim" for a column by
//	               position, optional "group_by"/"group_by_dim") answers
//	               {"count":N,"agg":{...}} with no rows. ?explain=true adds
//	               an execution report and bypasses the result cache.
//	POST /batch    {"queries":[{...},...]} — one fan-out for the whole
//	               batch (?explain=true or "early" run per-query instead)
//	POST /insert   {"row":[...]} — routes the row to its shard
//	POST /delete   {"row":[...]} — removes one exact-match row
//	POST /update   {"old":[...],"new":[...]} — replaces one row
//
// and fail the same way: 400 for a request that cannot mean anything (NaN,
// inverted or wrong-dimension bounds, "early" with limit ≤ 0 or with "agg",
// "agg" inside /batch, a malformed row), 404 for an absent row, 429 +
// Retry-After when admission control (-max-inflight, -max-queue,
// -queue-timeout) sheds the request — or, on the router, when every replica
// of a shard did, with the largest hint any gave — and 502 when a shard has
// no replica left to answer. The router knows no column names
// ("col"/"group_by" are a 400) and cannot explain (?explain=true is a 400).
// Serve mode alone adds POST /compact (rebuild stale shards online now;
// ?force=true: all), which the background compactor (-compact-interval)
// otherwise does on its own, and GET /debug/slowlog (the most recent
// queries slower than -slowlog-threshold, each with its EXPLAIN). A corrupt
// page in a mapped snapshot turns every later query into a 500 and /healthz
// into 503 "corrupt".
//
// -cache-size bounds the result cache (internal/serve): keyed on the
// canonicalized rectangle, evicted only by a write whose row lies inside the
// rectangle (or by a compaction or rebuild of a shard it spans), never
// stale; identical concurrent misses coalesce onto one engine fan-out.
// -debug-addr serves pprof, expvar and /metrics on a second listener;
// -access-log writes one line per request to stderr; SIGINT/SIGTERM drain
// in-flight requests for up to -drain-timeout.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "node":
		err = cmdNode(os.Args[2:])
	case "router":
		err = cmdRouter(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "coaxserve: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coaxserve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `coaxserve — sharded concurrent COAX query serving

subcommands:
  serve   answer HTTP/JSON queries and mutations from a sharded index
  node    host this process's consistent-hash share of a cluster's shards
          behind the binary wire protocol
  router  serve the same HTTP/JSON API by scatter-gathering across cluster
          nodes, with hedged replica reads and failover

run 'coaxserve <subcommand> -h' for flags`)
}
