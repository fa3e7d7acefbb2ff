package cluster

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/wire"
)

// OverloadError reports that a request could not be served because every
// replica that could answer it is shedding load; RetryAfter is the largest
// hint any replica returned (the earliest time the whole request can
// succeed). The HTTP layer maps it to 429 + Retry-After.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("cluster: all replicas overloaded, retry after %s", e.RetryAfter)
}

// Router scatter-gathers queries across the cluster's nodes. It mirrors
// the in-process fan-out of shard.Sharded.ExecRows and ExecAgg — range
// pruning by the same cuts, one shared stop signal, a context watcher, one
// part per shard merged in global shard order — and adds the failure modes
// a network introduces:
// per-node circuit breakers, failover to surviving replicas, and hedged
// reads that launch a shard's backup replica once its request has been
// outstanding longer than the node's observed p99.
//
// A shard's part is one attempt's whole answer, taken only once its stream
// completed, so a node dying mid-stream never tears or duplicates a shard:
// the shard is re-fetched from another replica from scratch, and the first
// complete answer is the one merged.
type Router struct {
	dims   int
	shards int          // K global shards
	ranges shard.Ranges // the nodes' range column and K-1 cuts
	rf     int
	ring   *Ring

	clients  map[string]*client
	order    []string   // node addresses, construction order
	replicas [][]string // precomputed Replicas(g, rf) per global shard

	hedgeOff   bool
	hedgeDelay time.Duration // static override; 0 = adaptive per-node p99

	// writes are router-local per-global-shard mutation versions and the
	// rows each shard's recent mutations wrote, backing serve.Invalidator
	// exactly as the engine's own rings do. They are sound while every
	// mutation flows through this router — the deployment shape
	// cmd/coaxserve sets up — and the nodes neither compact nor rebuild and
	// keep grid outliers, whose inserts leave other rows' scan order alone
	// (cmd/coaxserve builds node shards with the default options).
	writes []shard.WriteRing

	nextAttempt atomic.Uint64
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithHedging disables (false) or enables (true, the default) hedged
// replica reads.
func WithHedging(on bool) RouterOption {
	return func(rt *Router) { rt.hedgeOff = !on }
}

// WithHedgeDelay pins the hedge delay instead of adapting to each node's
// observed p99 (useful for benchmarks that want a fixed policy).
func WithHedgeDelay(d time.Duration) RouterOption {
	return func(rt *Router) { rt.hedgeDelay = d }
}

// NewRouter connects to the given node addresses and validates that they
// agree with this router's shape (dimensionality, global shard count K,
// replication factor rf) and with each other on the range cuts, which the
// router prunes and routes by. Placement is consistent hashing over the
// addresses, so routers built from the same address set plan identically.
func NewRouter(addrs []string, shards, rf int, opts ...RouterOption) (*Router, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: router needs a positive global shard count")
	}
	if rf <= 0 {
		rf = 1
	}
	if rf > 64 {
		return nil, fmt.Errorf("cluster: replication factor %d above 64", rf)
	}
	ring, err := NewRing(addrs, 0)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		shards:  shards,
		rf:      rf,
		ring:    ring,
		clients: make(map[string]*client, len(addrs)),
		order:   append([]string(nil), addrs...),
		writes:  make([]shard.WriteRing, shards),
	}
	for _, o := range opts {
		o(rt)
	}
	rt.replicas = ring.Placement(shards, rf)
	for _, a := range addrs {
		rt.clients[a] = newClient(a)
	}
	// One stats round-trip per node validates reachability and shape.
	for _, a := range addrs {
		cl := rt.clients[a]
		if _, _, err := cl.call(&wire.Stats{ID: cl.id()}); err != nil {
			rt.Close()
			return nil, fmt.Errorf("cluster: node %s: %w", a, err)
		}
		cl.mu.Lock()
		w := cl.welcome
		cl.mu.Unlock()
		if w.Shards != shards {
			rt.Close()
			return nil, fmt.Errorf("cluster: node %s built for %d global shards, router expects %d", a, w.Shards, shards)
		}
		switch {
		case rt.dims == 0:
			rt.dims, rt.ranges = w.Dims, shard.Ranges{Col: w.Col, Cuts: w.Cuts}
			if w.Col < 0 || w.Col >= w.Dims || len(w.Cuts) != shards-1 {
				rt.Close()
				return nil, fmt.Errorf("cluster: node %s cuts column %d of %d into %d shards, want %d", a, w.Col, w.Dims, len(w.Cuts)+1, shards)
			}
		case w.Dims != rt.dims:
			rt.Close()
			return nil, fmt.Errorf("cluster: node %s serves %d dims, cluster has %d", a, w.Dims, rt.dims)
		case w.Col != rt.ranges.Col || !slices.Equal(w.Cuts, rt.ranges.Cuts):
			rt.Close()
			return nil, fmt.Errorf("cluster: node %s places rows by other cuts than node %s", a, addrs[0])
		}
	}
	return rt, nil
}

// Close releases every node connection.
func (rt *Router) Close() {
	for _, cl := range rt.clients {
		cl.close()
	}
}

// Dims reports the cluster's row dimensionality.
func (rt *Router) Dims() int { return rt.dims }

// NumShards implements serve.Invalidator: the global shard count.
func (rt *Router) NumShards() int { return rt.shards }

// ShardVersion implements serve.Invalidator with the router-local
// mutation counters.
func (rt *Router) ShardVersion(i int) uint64 { return rt.writes[i].Version() }

// Touched implements serve.Invalidator: whether a mutation sent to global
// shard i since version since may have written a row inside r (see
// shard.WriteRing).
func (rt *Router) Touched(i int, since uint64, r index.Rect) (now uint64, touched bool) {
	return rt.writes[i].Touched(since, r)
}

// ShardSpan implements serve.Invalidator: the global shards a rectangle's
// range can reach, by shard.Sharded.ShardSpan's rule — only a native
// constraint on the range column prunes.
func (rt *Router) ShardSpan(r index.Rect) (lo, hi int) { return rt.ranges.Span(r) }

// plan returns the global shards a query on r asks for, [lo, hi] (none for
// an empty rectangle), and counts the shards it probes and prunes.
func (rt *Router) plan(r index.Rect) (lo, hi int) {
	lo, hi = rt.ranges.Span(r)
	if r.Empty() {
		lo, hi = 0, -1
	}
	obs.ClusterShardsProbed.Add(int64(hi - lo + 1))
	obs.ClusterShardsPruned.Add(int64(rt.shards - (hi - lo + 1)))
	return lo, hi
}

// route returns the global shard that holds row.
func (rt *Router) route(row []float64) int { return rt.ranges.Slot(row[rt.ranges.Col]) }

// --- scatter-gather execution ---

type eventKind int

const (
	evPart    eventKind = iota // one shard's whole answer from one attempt
	evReqDone                  // an attempt's request ended
	evHedge                    // an attempt's hedge delay elapsed
)

type event struct {
	kind     eventKind
	attempt  uint64
	shard    int
	part     part
	complete bool
	err      error
}

// attempt is one in-flight RPC to one node covering a set of shards.
type attempt struct {
	node   string
	shards map[int]bool // shards without a part yet
	hedged bool         // secondary read (hedge or failover)
	timer  *time.Timer  // hedge timer, primaries only
}

// shardState is the merge loop's per-global-shard bookkeeping.
type shardState struct {
	delivered bool // answered, or abandoned by a cancelled query
	failed    bool
	tried     uint64 // bit i: replica i has had an attempt
	// retryAfter is the largest back-off hint among the replicas that shed
	// this shard so far; if the shard fails for overload, that is its hint.
	retryAfter time.Duration
}

// Exec scatter-gathers one rectangle query across the cluster and yields
// its rows on the calling goroutine in global shard order, then each
// shard's scan order: it is ExecRows keeping every row, capped at
// spec.Limit when positive, so each node stops its shards after Limit
// local matches. The rows come once every shard has answered: yield's
// return value and spec.Ctx stop the delivery, not the remote scans. Rows
// handed to yield are stable copies. It reports whether the scan ran to
// completion, and a non-nil error when at least one global shard could not
// be answered by any replica (the rows yielded are then those of the
// shards that were).
func (rt *Router) Exec(r index.Rect, spec index.Spec, yield index.Yield) (bool, error) {
	st, complete, err := rt.ExecRows(r, spec, index.RowsState{Keep: -1, Limit: spec.Limit})
	for i := 0; i < st.Held(); i++ {
		if spec.Done() || !yield(st.Row(i)) {
			return false, err
		}
	}
	return complete, err
}

// ExecRows scatter-gathers one row reply over the global shards r can
// reach: each node folds its shards as keep does, shipping each shard's
// first keep.Keep rows and its exact count (capped at keep.Limit when
// positive), and the router merges the parts in global shard order with
// RowsState.Merge, as ExecAgg merges partials — so the held rows are the
// first keep.Keep matches in shard order, then scan order, the same rows
// whatever the node timing, and the same as a K-shard engine's ExecRows.
// keep's Count and Rows must be empty. A limited query stops once the
// shards answered in a prefix of shard order count keep.Limit rows;
// spec.Limit is ignored (keep.Limit caps the count). The
// boolean reports whether every shard ran to completion: false when the
// query was cancelled or reached its Limit. A non-nil error means at least
// one global shard could not be answered by any replica.
func (rt *Router) ExecRows(r index.Rect, spec index.Spec, keep index.RowsState) (index.RowsState, bool, error) {
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
		obs.Queries.Inc()
	}
	req := &wire.Query{Min: r.Min, Max: r.Max, Keep: int64(keep.Keep), Limit: int64(max(keep.Limit, 0))}
	parts, complete, err := rt.scatter(&spec, r, req)
	for _, p := range parts {
		keep.Merge(&index.RowsState{Keep: -1, Count: p.count, Rows: p.rows, Dims: rt.dims})
	}
	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		obs.QueryRows.Add(keep.Count)
		switch {
		case spec.Done():
			obs.QueryCancelled.Inc()
		case !complete:
			obs.EarlyStops.Inc()
		}
	}
	return keep, complete, err
}

// ExecAgg scatter-gathers one aggregation over the global shards r can
// reach: each node folds its shards into exact partials, and the router
// merges them in global shard order — the same merge discipline as the
// in-process fan-out over the same partition, so the result is bit-identical
// to a K-shard engine's ExecAgg over the same table, SUM and AVG included.
func (rt *Router) ExecAgg(r index.Rect, spec index.Spec, aspec index.AggSpec) (*index.AggState, bool, error) {
	if err := aspec.Validate(rt.dims); err != nil {
		return nil, false, err
	}
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
		obs.Queries.Inc()
		obs.AggQueries.Inc()
	}
	req := &wire.Agg{Min: r.Min, Max: r.Max, Op: uint8(aspec.Op), Col: aspec.Col, Group: aspec.Group}
	parts, complete, err := rt.scatter(&spec, r, req)
	st := index.NewAggState(aspec)
	for _, p := range parts {
		if p.agg != nil {
			st.Merge(stateFromPart(aspec, p.agg))
		}
	}
	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		if spec.Done() {
			obs.QueryCancelled.Inc()
		}
	}
	return st, complete, err
}

// scatter is the merge loop behind ExecRows and ExecAgg: it sends req (a
// *wire.Query or *wire.Agg over r; its ID and Shards are set per attempt)
// to the replicas of the global shards r can reach and returns each shard's
// first complete answer, in shard order. It returns once every shard is answered or has
// failed, or once a limited Query is covered — the shards answered in a
// prefix of shard order count its Limit rows, so no later shard's row could
// be kept — without waiting for the attempts still out, which a cancel
// frame reels in.
func (rt *Router) scatter(spec *index.Spec, r index.Rect, req wire.Message) ([]part, bool, error) {
	if err := r.Validate(); err != nil {
		return nil, false, err
	}
	if r.Dims() != rt.dims {
		return nil, false, fmt.Errorf("cluster: rectangle has %d dims, cluster has %d", r.Dims(), rt.dims)
	}
	lo, hi := rt.plan(r)
	events := make(chan event, 64)
	loopDone := make(chan struct{})
	defer close(loopDone)
	post := func(ev event) {
		select {
		case events <- ev:
		case <-loopDone:
		}
	}

	// stopCh is the cluster-wide stop signal — the remote analogue of the
	// in-process atomic stop flag. Closing it makes every in-flight RPC
	// send a Cancel frame; the context watcher below closes it the moment
	// the context is done, as the in-process fan-out raises its flag.
	stopCh := make(chan struct{})
	var stopOnce sync.Once
	raiseStop := func() { stopOnce.Do(func() { close(stopCh) }) }
	defer raiseStop()
	if spec.Ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-spec.Ctx.Done():
				raiseStop()
			case <-watchDone:
			}
		}()
	}

	parts := make([]part, rt.shards)
	states := make([]shardState, rt.shards)
	attempts := make(map[uint64]*attempt)
	defer func() {
		for _, att := range attempts {
			if att.timer != nil {
				att.timer.Stop()
			}
		}
	}()
	remaining := hi - lo + 1

	var limit int64
	if q, ok := req.(*wire.Query); ok {
		limit = q.Limit
	}
	covered, prefixRows := lo, int64(0) // the first shard past the answered prefix, and the prefix's rows

	launch := func(node string, shards []int, hedged bool) {
		cl := rt.clients[node]
		attID := rt.nextAttempt.Add(1)
		att := &attempt{node: node, shards: make(map[int]bool, len(shards)), hedged: hedged}
		for _, g := range shards {
			att.shards[g] = true
		}
		attempts[attID] = att
		if !hedged && !rt.hedgeOff && rt.rf > 1 && len(rt.order) > 1 {
			d := rt.hedgeDelay
			if d <= 0 {
				d = cl.lat.hedgeDelay()
			}
			att.timer = time.AfterFunc(d, func() { post(event{kind: evHedge, attempt: attID}) })
		}
		var send wire.Message
		switch q := req.(type) {
		case *wire.Query:
			c := *q
			c.ID, c.Shards = cl.id(), shards
			send = &c
		case *wire.Agg:
			c := *q
			c.ID, c.Shards = cl.id(), shards
			send = &c
		}
		go func() {
			complete, err := cl.stream(send, stopCh, func(g int, p part, complete bool) {
				post(event{kind: evPart, attempt: attID, shard: g, part: p, complete: complete})
			})
			post(event{kind: evReqDone, attempt: attID, complete: complete, err: err})
		}()
	}

	// planNext groups undelivered shards by the node that should serve
	// them next: an untried replica of each, preferring one whose breaker
	// is closed (an open one is still tried once nothing else is left: it
	// may half-open); among those first a node this plan already asks while
	// it holds fewer than share of the shards, then a node it does not ask
	// yet, then ring preference order. share is the nodes' even split of
	// the shards, but at least two, so a rectangle that crosses one cut
	// costs one RPC and a wider one, up to every shard, spreads evenly over
	// the nodes that host it. A shard whose replicas were all tried is left
	// out; the caller fails it.
	planNext := func(shards []int) map[string][]int {
		plan := make(map[string][]int)
		share := max(2, (len(shards)+len(rt.order)-1)/len(rt.order))
		for _, g := range shards {
			st := &states[g]
			chosen, best := -1, 4
			for i, node := range rt.replicas[g] {
				rank := 3
				switch {
				case st.tried&(1<<i) != 0:
					continue
				case rt.clients[node].breaker.open():
				case len(plan[node]) == 0:
					rank = 1
				case len(plan[node]) < share:
					rank = 0
				default:
					rank = 2
				}
				if rank < best {
					chosen, best = i, rank
				}
			}
			if chosen < 0 {
				continue
			}
			st.tried |= 1 << chosen
			node := rt.replicas[g][chosen]
			plan[node] = append(plan[node], g)
		}
		return plan
	}
	// exhausted reports whether every replica of shard g has been tried.
	exhausted := func(g int) bool { return bits.OnesCount64(states[g].tried) == len(rt.replicas[g]) }

	// Every shard on a live replica, as few nodes as hold them.
	all := make([]int, 0, remaining)
	for g := lo; g <= hi; g++ {
		all = append(all, g)
	}
	for node, shards := range planNext(all) {
		launch(node, shards, false)
	}

	var failErr error // first non-overload shard failure
	failedOverload := 0
	failedOther := 0
	var maxRetryAfter time.Duration

	failShard := func(g int, st *shardState, err error) {
		st.failed = true
		remaining--
		if _, ok := err.(*overloadedError); ok {
			failedOverload++
			maxRetryAfter = max(maxRetryAfter, st.retryAfter)
		} else {
			failedOther++
			if failErr == nil {
				if err == nil {
					err = fmt.Errorf("cluster: shard %d: stream ended without result", g)
				}
				failErr = fmt.Errorf("cluster: shard %d unavailable: %w", g, err)
			}
		}
	}

	// deliver settles shard g with p, its answer or (abandoned) nothing,
	// and extends the answered prefix.
	deliver := func(g int, p part) {
		parts[g] = p
		states[g].delivered = true
		remaining--
		for covered <= hi && states[covered].delivered {
			prefixRows += parts[covered].count
			covered++
		}
	}

	// inFlight reports whether an attempt still running may yet answer g.
	inFlight := func(g int) bool {
		for _, att := range attempts {
			if att.shards[g] {
				return true
			}
		}
		return false
	}

	// retry re-plans a set of undelivered shards onto their next replicas
	// (failover); shards with no replicas left fail — unless another attempt
	// is still out for them: a hedge that lost its node must not fail the
	// shard under the primary it was racing, nor the reverse. A replica that
	// shed the shard leaves its hint behind, so a shard every replica shed
	// fails with the largest of them, as a shed mutation does.
	retry := func(shards []int, cause error) {
		var live []int
		for _, g := range shards {
			st := &states[g]
			if st.delivered || st.failed {
				continue
			}
			if oe, ok := cause.(*overloadedError); ok {
				st.retryAfter = max(st.retryAfter, oe.retryAfter)
			}
			if exhausted(g) {
				if !inFlight(g) {
					failShard(g, st, cause)
				}
				continue
			}
			live = append(live, g)
		}
		planned := make(map[int]bool)
		for node, shards := range planNext(live) {
			obs.ClusterFailovers.Add(int64(len(shards)))
			for _, g := range shards {
				planned[g] = true
			}
			launch(node, shards, true)
		}
		for _, g := range live {
			if !planned[g] {
				failShard(g, &states[g], cause)
			}
		}
	}

	for remaining > 0 && (limit <= 0 || prefixRows < limit) {
		ev := <-events
		att := attempts[ev.attempt]
		switch ev.kind {
		case evPart:
			delete(att.shards, ev.shard)
			obs.ClusterRowsReceived.Add(int64(len(ev.part.rows) / rt.dims))
			st := &states[ev.shard]
			if st.delivered || st.failed {
				continue
			}
			if !ev.complete {
				// The node's scan stopped early. When the query is cancelled
				// that is expected — the shard is simply abandoned; otherwise
				// treat it as a failed attempt and fail over.
				if spec.Done() {
					deliver(ev.shard, part{})
				} else {
					retry([]int{ev.shard}, fmt.Errorf("cluster: node %s returned an incomplete shard %d", att.node, ev.shard))
				}
				continue
			}
			if att.hedged {
				obs.ClusterHedgeWins.Inc()
			}
			deliver(ev.shard, ev.part)

		case evReqDone:
			delete(attempts, ev.attempt)
			if att.timer != nil {
				att.timer.Stop()
			}
			if len(att.shards) == 0 {
				continue
			}
			// The request ended with shards unanswered: a transport error,
			// a node-side Error frame, or a Done that skipped shards.
			pending := make([]int, 0, len(att.shards))
			for g := range att.shards {
				pending = append(pending, g)
			}
			sort.Ints(pending)
			if spec.Done() {
				for _, g := range pending {
					if st := &states[g]; !st.delivered && !st.failed {
						deliver(g, part{})
					}
				}
				continue
			}
			retry(pending, ev.err)

		case evHedge:
			if att == nil || spec.Done() {
				continue
			}
			var hedgeable []int
			for g := range att.shards {
				st := &states[g]
				if !st.delivered && !st.failed && !exhausted(g) {
					hedgeable = append(hedgeable, g)
				}
			}
			sort.Ints(hedgeable)
			for node, shards := range planNext(hedgeable) {
				obs.ClusterHedges.Inc()
				launch(node, shards, true)
			}
		}
	}

	switch {
	case spec.Done() || limit > 0 && prefixRows >= limit: // cancelled, or covered: a shard failing past the prefix changes nothing
		return parts[lo : hi+1], false, nil
	case failedOther > 0:
		return parts[lo : hi+1], false, failErr
	case failedOverload > 0:
		return parts[lo : hi+1], false, &OverloadError{RetryAfter: maxRetryAfter}
	}
	return parts[lo : hi+1], true, nil
}

// --- mutations ---

// Insert routes row to its global shard by its range-column value and
// writes it to every replica. The mutation succeeds when at least one
// replica acknowledged it.
func (rt *Router) Insert(row []float64) error {
	if err := lifecycle.ValidateRow(rt.dims, row); err != nil {
		return err
	}
	return rt.mutate(rt.route(row), wire.MutInsert, row, nil)
}

// Delete removes row from every replica of its global shard.
func (rt *Router) Delete(row []float64) error {
	if err := lifecycle.ValidateRow(rt.dims, row); err != nil {
		return err
	}
	return rt.mutate(rt.route(row), wire.MutDelete, row, nil)
}

// Update replaces old with new. When a cut lies between the rows' values
// the update decomposes into delete + insert across the two
// replica sets, with a best-effort re-insert of the old row if the insert
// half fails.
func (rt *Router) Update(old, new []float64) error {
	if err := lifecycle.ValidateRow(rt.dims, old); err != nil {
		return err
	}
	if err := lifecycle.ValidateRow(rt.dims, new); err != nil {
		return err
	}
	g1, g2 := rt.route(old), rt.route(new)
	if g1 == g2 {
		return rt.mutate(g1, wire.MutUpdate, old, new)
	}
	// Each half records its own row on its own shard, the rollback too.
	if err := rt.mutate(g1, wire.MutDelete, old, nil); err != nil {
		return err
	}
	if err := rt.mutate(g2, wire.MutInsert, new, nil); err != nil {
		rt.mutate(g1, wire.MutInsert, old, nil) // best-effort rollback
		return err
	}
	return nil
}

// mutate writes one mutation to every replica of a global shard in
// parallel. Success requires at least one acknowledging replica. The
// router-local shard ring records the mutation's rows whenever its frame
// reached any replica's connection, whatever came back: a replica may apply
// it and then lose the connection or time out before its ack, and a cached
// answer must not outlive a write that may have landed.
func (rt *Router) mutate(g int, op uint8, row, newRow []float64) error {
	reps := rt.replicas[g]
	errs := make([]error, len(reps))
	sent := make([]bool, len(reps))
	var wg sync.WaitGroup
	for i, node := range reps {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			cl := rt.clients[node]
			m := &wire.Mutate{ID: cl.id(), Op: op, Shard: g, Row: row, New: newRow}
			_, sent[i], errs[i] = cl.call(m)
		}(i, node)
	}
	wg.Wait()
	if slices.Contains(sent, true) {
		rt.writes[g].Record(row, newRow)
	}

	acked := 0
	var firstErr error
	allOverload := true
	var maxRetryAfter time.Duration
	for _, err := range errs {
		if err == nil {
			acked++
			continue
		}
		if oe, ok := err.(*overloadedError); ok {
			if oe.retryAfter > maxRetryAfter {
				maxRetryAfter = oe.retryAfter
			}
		} else {
			allOverload = false
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if acked > 0 {
		return nil
	}
	if allOverload {
		return &OverloadError{RetryAfter: maxRetryAfter}
	}
	return engineError(firstErr)
}

// engineError translates a node's logical error back into the engine
// error types the serving layer already maps to HTTP statuses.
func engineError(err error) error {
	re, ok := err.(*remoteError)
	if !ok {
		return err
	}
	switch re.code {
	case wire.CodeNotFound:
		return fmt.Errorf("%w (via cluster)", core.ErrNotFound)
	case wire.CodeBadRow:
		return &lifecycle.RowError{Reason: re.msg + " (via cluster)"}
	}
	return err
}

// --- stats ---

// NodeStats is one node's view of itself. MemoryOverhead is the index
// directory bytes of its hosted shards.
type NodeStats struct {
	Addr           string  `json:"addr"`
	Rows           int64   `json:"rows"`
	Hosted         []int   `json:"hosted_shards"`
	MemoryOverhead int64   `json:"memory_overhead_bytes"`
	BuildS         float64 `json:"build_s"` // the node's start-up build
	Err            string  `json:"error,omitempty"`
	P99Ms          float64 `json:"p99_ms"`
	Open           bool    `json:"breaker_open"`
}

// ClusterStats is the router's view of the cluster. MemoryOverhead sums
// the nodes' that answered: every replica's directory counts.
type ClusterStats struct {
	Rows           int64       `json:"rows"`
	Shards         int         `json:"global_shards"`
	Replicas       int         `json:"replication_factor"`
	MemoryOverhead int64       `json:"memory_overhead_bytes"`
	Nodes          []NodeStats `json:"nodes"`
	ShardRows      []int64     `json:"shard_rows"`
	Unanswered     int         `json:"unanswered_shards"`
}

// Stats polls every node concurrently and assembles the cluster shape,
// listing the nodes in construction order. Each global shard's row count
// is taken from the first replica that answered, so the total counts every
// logical row exactly once regardless of rf.
func (rt *Router) Stats() ClusterStats {
	st := ClusterStats{Shards: rt.shards, Replicas: rt.rf, ShardRows: make([]int64, rt.shards),
		Nodes: make([]NodeStats, len(rt.order))}
	perNode := make(map[string]map[int]int64, len(rt.order))
	var mu sync.Mutex // guards perNode
	var wg sync.WaitGroup
	for i, addr := range rt.order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rt.clients[addr]
			ns := NodeStats{Addr: addr, Open: cl.breaker.open(), P99Ms: float64(cl.lat.p99()) / float64(time.Millisecond)}
			res, _, err := cl.call(&wire.Stats{ID: cl.id()})
			if err != nil {
				ns.Err = err.Error()
			} else if sr, ok := res.(*wire.StatsRes); ok {
				ns.Rows, ns.Hosted, ns.MemoryOverhead, ns.BuildS = sr.Rows, sr.Hosted, sr.MemoryOverhead, sr.BuildSeconds
				m := make(map[int]int64, len(sr.Hosted))
				for i, g := range sr.Hosted {
					if i < len(sr.ShardRows) {
						m[g] = sr.ShardRows[i]
					}
				}
				mu.Lock()
				perNode[addr] = m
				mu.Unlock()
			}
			st.Nodes[i] = ns
		}()
	}
	wg.Wait()
	for _, ns := range st.Nodes {
		st.MemoryOverhead += ns.MemoryOverhead
	}
	for g := 0; g < rt.shards; g++ {
		counted := false
		for _, addr := range rt.replicas[g] {
			if rows, hosted := perNode[addr][g]; hosted {
				st.ShardRows[g] = rows
				st.Rows += rows
				counted = true
				break
			}
		}
		if !counted {
			st.Unanswered++
		}
	}
	return st
}
