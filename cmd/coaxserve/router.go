package main

// The router subcommand and its backend: the same HTTP front end as serve
// mode (server.go), answering from a cluster.Router scatter-gather instead
// of an in-process engine. Clients cannot tell the difference, with two
// exceptions: the wire protocol carries no schema, so aggregations address
// columns by position ("dim"/"group_by_dim"), and no trace crosses the
// process boundary yet, so ?explain=true is refused rather than ignored.
// A row reply's rows come in global shard order, then scan order — the
// same bytes on every run, and the same rows as an engine shard.Build makes
// of the same table with K shards, since the K global shards are the K
// range slots of one such build.
//
// Overload propagates end to end: when every replica of a shard sheds a
// request node-side, the resulting cluster.OverloadError surfaces as 429
// with the LARGEST Retry-After any replica returned — the earliest time the
// whole request can succeed.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/index"
)

func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	var (
		addr   = fs.String("addr", ":8080", "HTTP listen address")
		nodes  = fs.String("nodes", "", "comma-separated node addresses (required; must equal every node's -peers list)")
		shards = fs.Int("shards", 16, "cluster-wide global shard count K; must match the nodes")
		rf     = fs.Int("replication", 2, "replication factor; must match the nodes")

		hedge      = fs.Bool("hedge", true, "hedged replica reads: after a per-node p99-based delay, race a shard's next replica against the slow one")
		hedgeDelay = fs.Duration("hedge-delay", 0, "pin the hedge delay instead of adapting to observed node p99 (0: adaptive)")
	)
	tier := tierFlags(fs)
	fs.Parse(args)

	nodeList := splitAddrs(*nodes)
	if len(nodeList) == 0 {
		return fmt.Errorf("router needs -nodes")
	}
	opts := []cluster.RouterOption{cluster.WithHedging(*hedge)}
	if *hedgeDelay > 0 {
		opts = append(opts, cluster.WithHedgeDelay(*hedgeDelay))
	}
	rt, err := cluster.NewRouter(nodeList, *shards, *rf, opts...)
	if err != nil {
		return err
	}
	defer rt.Close()

	fmt.Printf("router ready: %d rows on %d node(s), %d global shards, rf=%d, hedging %v, at %s\n",
		rt.Stats().Rows, len(nodeList), *shards, *rf, *hedge, *addr)
	return tier(clusterBackend{rt}).listenAndServe(*addr)
}

// clusterBackend serves from a cluster. The embedded router supplies the
// engine half of backend (versions, dimensionality, mutations).
type clusterBackend struct {
	*cluster.Router
}

// Columns is empty: the wire protocol carries no schema.
func (c clusterBackend) Columns() []string { return nil }

func (c clusterBackend) liveRows() int64 { return c.Stats().Rows }

var errNoExplain = requestError{errors.New("the cluster router cannot produce an execution report; drop explain=true")}

// finish settles one scatter-gather: the router reports a stopped or
// cancelled fan-out as incomplete, not as an error, and an error other than
// all-replicas-overloaded means some shard went unanswered.
func finish(ctx context.Context, err error) error {
	var shed *cluster.OverloadError
	switch {
	case err == nil:
		return ctx.Err()
	case errors.As(err, &shed):
		return err
	}
	return unansweredError{err}
}

// runRows scatter-gathers one rectangle as a row reply: the first keep rows
// in global shard order, each node shipping at most keep rows per shard.
// With early, keep is also the limit, so every node stops scanning once its
// shards have produced enough rows.
func (c clusterBackend) runRows(ctx context.Context, r coax.Rect, keep int, early, explain bool) (*coax.HeadResult, error) {
	if explain {
		return nil, errNoExplain
	}
	st := index.RowsState{Keep: keep}
	if early {
		st.Limit = keep
	}
	st, complete, err := c.ExecRows(r, index.Spec{Ctx: ctx}, st)
	if err = finish(ctx, err); err != nil {
		return nil, err
	}
	return headOf(&st, complete), nil
}

// runAgg scatter-gathers one aggregation and extracts the merged state the
// way the library does for a local one.
func (c clusterBackend) runAgg(ctx context.Context, r coax.Rect, spec index.AggSpec, explain bool) (*coax.AggResult, error) {
	if explain {
		return nil, errNoExplain
	}
	st, complete, err := c.ExecAgg(r, index.Spec{Ctx: ctx}, spec)
	if err = finish(ctx, err); err != nil {
		return nil, err
	}
	res := &coax.AggResult{Op: spec.Op.String(), Complete: complete}
	if spec.Group < 0 {
		res.Count = st.All.Count
		res.Value, res.Valid = st.All.Value(spec.Op)
		return res, nil
	}
	keys := st.GroupKeys()
	res.Groups = make([]coax.GroupResult, 0, len(keys))
	for _, k := range keys {
		cell := st.Groups[k]
		v, _ := cell.Value(spec.Op)
		res.Groups = append(res.Groups, coax.GroupResult{Key: k, Count: cell.Count, Value: v})
		res.Count += cell.Count
	}
	return res, nil
}

// runBatch is one scatter-gather per query: the wire protocol has no batch
// request.
func (c clusterBackend) runBatch(ctx context.Context, rects []coax.Rect, keep int) ([]*coax.HeadResult, error) {
	pages := make([]*coax.HeadResult, len(rects))
	for qi, r := range rects {
		p, err := c.runRows(ctx, r, keep, false, false)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", qi, err)
		}
		pages[qi] = p
	}
	return pages, nil
}

// routerStatsResponse is the router's GET /stats body: the cluster shape
// plus the serving-tier counters.
type routerStatsResponse struct {
	cluster.ClusterStats
	Dims int `json:"dims"`
	tierStats
}

func (c clusterBackend) stats(tier tierStats) any {
	return routerStatsResponse{ClusterStats: c.Stats(), Dims: c.Dims(), tierStats: tier}
}

// routerHealthz is the verbose /healthz body: enough cluster shape for an
// operator to see a node drop out without scraping metrics.
type routerHealthz struct {
	Status        string  `json:"status"`
	Rows          int64   `json:"rows"`
	Nodes         int     `json:"nodes"`
	NodesDown     int     `json:"nodes_down"`
	Unanswered    int     `json:"unanswered_shards"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Startup is the nodes' start-up: the slowest node's build, since the
	// nodes build in parallel and the cluster answers once all have.
	Startup startup `json:"startup"`
}

func (c clusterBackend) health(verbose bool, uptime time.Duration) (int, any) {
	if !verbose {
		return http.StatusOK, map[string]string{"status": "ok"}
	}
	cs := c.Stats()
	h := routerHealthz{Status: "ok", Rows: cs.Rows, Nodes: len(cs.Nodes), Unanswered: cs.Unanswered, UptimeSeconds: uptime.Seconds()}
	for _, n := range cs.Nodes {
		if n.Err != "" {
			h.NodesDown++
		}
		h.Startup.BuildS = max(h.Startup.BuildS, n.BuildS)
	}
	if cs.Unanswered > 0 {
		h.Status = "degraded"
	}
	return http.StatusOK, h
}
