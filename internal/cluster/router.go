package cluster

import (
	"fmt"
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
// the in-process fan-out of shard.Sharded.Exec — one shared stop signal,
// a context watcher, rows streamed to the caller as shards complete — and
// adds the failure modes a network introduces: per-node circuit breakers,
// failover to surviving replicas, and hedged reads that launch a shard's
// backup replica once its request has been outstanding longer than the
// node's observed p99.
//
// Rows are delivered to the yield only when their shard's stream
// completed (per-shard commit), so a node dying mid-stream never delivers
// a row twice: its shards are re-fetched from another replica from
// scratch and only one attempt's rows are ever handed over.
type Router struct {
	dims   int
	shards int // K global shards
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
// replication factor rf). Placement is consistent hashing over the
// addresses, so routers built from the same address set plan identically.
func NewRouter(addrs []string, shards, rf int, opts ...RouterOption) (*Router, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: router needs a positive global shard count")
	}
	if rf <= 0 {
		rf = 1
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
		if rt.dims == 0 {
			rt.dims = w.Dims
		} else if w.Dims != rt.dims {
			rt.Close()
			return nil, fmt.Errorf("cluster: node %s serves %d dims, cluster has %d", a, w.Dims, rt.dims)
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

// ShardSpan implements serve.Invalidator. Global shards are
// hash-partitioned, so no rectangle prunes: every query spans all of them.
func (rt *Router) ShardSpan(index.Rect) (lo, hi int) { return 0, rt.shards - 1 }

// --- scatter-gather execution ---

type eventKind int

const (
	evChunk eventKind = iota
	evEOF
	evPart
	evReqDone
	evHedge
)

type event struct {
	kind     eventKind
	attempt  uint64
	shard    int
	rows     []float64
	part     *wire.AggPart
	complete bool
	err      error
}

// attempt is one in-flight RPC to one node covering a set of shards.
type attempt struct {
	node   string
	shards map[int]bool // shards without an EOF/part yet
	hedged bool         // secondary read (hedge or failover)
	timer  *time.Timer  // hedge timer, primaries only
}

// shardState is the merge loop's per-global-shard bookkeeping.
type shardState struct {
	delivered bool
	failed    bool
	next      int                  // next replica index to try
	bufs      map[uint64][]float64 // per-attempt row accumulation (query mode)
	// retryAfter is the largest back-off hint among the replicas that shed
	// this shard so far; if the shard fails for overload, that is its hint.
	retryAfter time.Duration
}

// Exec scatter-gathers one rectangle query across the cluster under the
// v2 contract (see shard.Sharded.Exec): rows stream to yield on the
// calling goroutine, yield's return value stops every remote scan via
// cancel frames, spec.Ctx cancels promptly, and spec.Limit both caps
// delivery and lets each node stop its shards after Limit local matches.
// Rows handed to yield are stable copies. It reports whether the scan ran
// to completion, and a non-nil error when at least one global shard could
// not be answered by any replica (rows already yielded are a valid subset
// of the result).
func (rt *Router) Exec(r index.Rect, spec index.Spec, yield index.Yield) (bool, error) {
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
		obs.Queries.Inc()
	}
	delivered := 0
	complete, err := rt.scatter(r, &spec, false, index.AggSpec{}, func(rows []float64, stopped *bool) {
		for off := 0; off+rt.dims <= len(rows); off += rt.dims {
			if spec.Limit > 0 && delivered >= spec.Limit {
				*stopped = true
				return
			}
			if !yield(rows[off : off+rt.dims : off+rt.dims]) {
				*stopped = true
				return
			}
			delivered++
		}
	}, nil)
	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		obs.QueryRows.Add(int64(delivered))
		switch {
		case spec.Done():
			obs.QueryCancelled.Inc()
		case !complete:
			obs.EarlyStops.Inc()
		}
	}
	return complete, err
}

// ExecAgg scatter-gathers one aggregation: each node folds its shards
// into exact partials, and the router merges them in global shard order —
// the same merge discipline as the in-process fan-out, so repeated
// executions are bit-identical. Against a single-process engine,
// COUNT/MIN/MAX agree exactly; SUM/AVG agree to within floating-point
// reassociation error, because the cluster partitions rows differently.
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
	parts := make([]*wire.AggPart, rt.shards)
	complete, err := rt.scatter(r, &spec, true, aspec, nil, func(p *wire.AggPart) {
		parts[p.Shard] = p
	})
	st := index.NewAggState(aspec)
	for _, p := range parts {
		if p != nil {
			st.Merge(stateFromPart(aspec, p))
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

// scatter is the shared merge loop behind Exec and ExecAgg. deliverRows
// (query mode) receives one shard's complete row set and may raise
// *stopped to halt the fan-out; deliverPart (agg mode) receives one
// shard's complete partial.
func (rt *Router) scatter(r index.Rect, spec *index.Spec, agg bool, aspec index.AggSpec, deliverRows func([]float64, *bool), deliverPart func(*wire.AggPart)) (bool, error) {
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

	states := make([]shardState, rt.shards)
	for g := range states {
		states[g].bufs = make(map[uint64][]float64)
	}
	attempts := make(map[uint64]*attempt)
	outstanding := 0
	remaining := rt.shards

	limit := int64(0)
	if !agg && spec.Limit > 0 {
		limit = int64(spec.Limit)
	}

	launch := func(node string, shards []int, hedged bool) {
		cl := rt.clients[node]
		attID := rt.nextAttempt.Add(1)
		att := &attempt{node: node, shards: make(map[int]bool, len(shards)), hedged: hedged}
		for _, g := range shards {
			att.shards[g] = true
		}
		attempts[attID] = att
		outstanding++
		if !hedged && !rt.hedgeOff && rt.rf > 1 && len(rt.order) > 1 {
			d := rt.hedgeDelay
			if d <= 0 {
				d = cl.lat.hedgeDelay()
			}
			att.timer = time.AfterFunc(d, func() { post(event{kind: evHedge, attempt: attID}) })
		}
		id := cl.id()
		var req wire.Message
		if agg {
			req = &wire.Agg{ID: id, Shards: shards, Min: r.Min, Max: r.Max,
				Op: uint8(aspec.Op), Col: aspec.Col, Group: aspec.Group}
		} else {
			req = &wire.Query{ID: id, Shards: shards, Min: r.Min, Max: r.Max, Limit: limit}
		}
		go func() {
			complete, err := cl.stream(req, stopCh,
				func(f *wire.RowChunk) { post(event{kind: evChunk, attempt: attID, shard: f.Shard, rows: f.Rows}) },
				func(f *wire.ShardEOF) { post(event{kind: evEOF, attempt: attID, shard: f.Shard, complete: f.Complete}) },
				func(f *wire.AggPart) {
					post(event{kind: evPart, attempt: attID, shard: f.Shard, part: f, complete: f.Complete})
				})
			post(event{kind: evReqDone, attempt: attID, complete: complete, err: err})
		}()
	}

	// planNext groups undelivered shards by the node that should serve
	// them next: each shard's next untried replica (st.next is the 0-based
	// index of it), preferring replicas whose breaker is closed. Replicas
	// skipped for an open breaker count as tried — a failover walks
	// forward, never back.
	planNext := func(shards []int) map[string][]int {
		plan := make(map[string][]int)
		for _, g := range shards {
			st := &states[g]
			reps := rt.replicas[g]
			chosen := -1
			for i := st.next; i < len(reps); i++ {
				if !rt.clients[reps[i]].breaker.open() {
					chosen = i
					break
				}
			}
			if chosen < 0 {
				// Every remaining replica's breaker is open: try the next
				// one anyway (it may half-open) rather than failing fast.
				chosen = st.next
				if chosen >= len(reps) {
					continue // exhausted; caller handles failure
				}
			}
			st.next = chosen + 1
			plan[reps[chosen]] = append(plan[reps[chosen]], g)
		}
		return plan
	}

	// Initial plan: every shard on its first live replica.
	{
		plan := make(map[string][]int)
		for g := 0; g < rt.shards; g++ {
			st := &states[g]
			reps := rt.replicas[g]
			chosen := 0
			for i, n := range reps {
				if !rt.clients[n].breaker.open() {
					chosen = i
					break
				}
			}
			st.next = chosen + 1
			plan[reps[chosen]] = append(plan[reps[chosen]], g)
		}
		for node, shards := range plan {
			sort.Ints(shards)
			launch(node, shards, false)
		}
	}

	stopped := false  // user-visible early stop: limit met or yield declined
	var failErr error // first non-overload shard failure
	failedOverload := 0
	failedOther := 0
	var maxRetryAfter time.Duration

	finishShard := func(st *shardState) {
		st.delivered = true
		st.bufs = nil
		remaining--
		if remaining == 0 {
			raiseStop() // everything answered; reel in duplicate attempts
		}
	}

	failShard := func(g int, st *shardState, err error) {
		st.failed = true
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
		finishShard(st)
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
			if st.next >= len(rt.replicas[g]) {
				if !inFlight(g) {
					failShard(g, st, cause)
				}
				continue
			}
			live = append(live, g)
		}
		if len(live) == 0 {
			return
		}
		plan := planNext(live)
		planned := make(map[int]bool)
		for node, shards := range plan {
			sort.Ints(shards)
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

	for outstanding > 0 {
		ev := <-events
		switch ev.kind {
		case evChunk:
			st := &states[ev.shard]
			if st.delivered || st.failed {
				continue
			}
			st.bufs[ev.attempt] = append(st.bufs[ev.attempt], ev.rows...)

		case evEOF:
			att := attempts[ev.attempt]
			if att != nil {
				delete(att.shards, ev.shard)
			}
			st := &states[ev.shard]
			if st.delivered || st.failed {
				continue
			}
			rows := st.bufs[ev.attempt]
			delete(st.bufs, ev.attempt)
			if !ev.complete {
				// The node's scan stopped early. When we are stopping that
				// is expected — the shard is simply abandoned; otherwise
				// treat it as a failed attempt and fail over.
				if stopped || spec.Done() {
					finishShard(st)
				} else if att != nil {
					retry([]int{ev.shard}, fmt.Errorf("cluster: node %s returned an incomplete shard %d", att.node, ev.shard))
				}
				continue
			}
			if att != nil && att.hedged {
				obs.ClusterHedgeWins.Inc()
			}
			if deliverRows != nil && !stopped {
				deliverRows(rows, &stopped)
				if stopped {
					raiseStop()
				}
			}
			finishShard(st)

		case evPart:
			att := attempts[ev.attempt]
			if att != nil {
				delete(att.shards, ev.shard)
			}
			st := &states[ev.shard]
			if st.delivered || st.failed {
				continue
			}
			if !ev.complete {
				if stopped || spec.Done() {
					finishShard(st)
				} else if att != nil {
					retry([]int{ev.shard}, fmt.Errorf("cluster: node %s returned an incomplete partial for shard %d", att.node, ev.shard))
				}
				continue
			}
			if att != nil && att.hedged {
				obs.ClusterHedgeWins.Inc()
			}
			if deliverPart != nil {
				deliverPart(ev.part)
			}
			finishShard(st)

		case evReqDone:
			outstanding--
			att := attempts[ev.attempt]
			delete(attempts, ev.attempt)
			if att == nil {
				continue
			}
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
				// Drop this attempt's partial buffers — its rows must never
				// mix with a retry's.
				if st := &states[g]; st.bufs != nil {
					delete(st.bufs, ev.attempt)
				}
				pending = append(pending, g)
			}
			sort.Ints(pending)
			if stopped || spec.Done() {
				for _, g := range pending {
					st := &states[g]
					if !st.delivered && !st.failed {
						finishShard(st)
					}
				}
				continue
			}
			retry(pending, ev.err)

		case evHedge:
			att := attempts[ev.attempt]
			if att == nil || stopped || spec.Done() || len(att.shards) == 0 {
				continue
			}
			var hedgeable []int
			for g := range att.shards {
				st := &states[g]
				if !st.delivered && !st.failed && st.next < len(rt.replicas[g]) {
					hedgeable = append(hedgeable, g)
				}
			}
			if len(hedgeable) == 0 {
				continue
			}
			sort.Ints(hedgeable)
			plan := planNext(hedgeable)
			for node, shards := range plan {
				sort.Ints(shards)
				obs.ClusterHedges.Inc()
				launch(node, shards, true)
			}
		}
	}

	cancelled := spec.Done()
	complete := !stopped && !cancelled && failedOverload == 0 && failedOther == 0 && remaining == 0
	if stopped || cancelled {
		return false, nil
	}
	if failedOther > 0 {
		return false, failErr
	}
	if failedOverload > 0 {
		return false, &OverloadError{RetryAfter: maxRetryAfter}
	}
	return complete, nil
}

// --- mutations ---

// Insert routes row to its global shard and writes it to every replica.
// The mutation succeeds when at least one replica acknowledged it.
func (rt *Router) Insert(row []float64) error {
	if err := lifecycle.ValidateRow(rt.dims, row); err != nil {
		return err
	}
	g := RouteRow(row, rt.shards)
	return rt.mutate(g, wire.MutInsert, row, nil)
}

// Delete removes row from every replica of its global shard.
func (rt *Router) Delete(row []float64) error {
	if err := lifecycle.ValidateRow(rt.dims, row); err != nil {
		return err
	}
	g := RouteRow(row, rt.shards)
	return rt.mutate(g, wire.MutDelete, row, nil)
}

// Update replaces old with new. When the rows hash to different global
// shards the update decomposes into delete + insert across the two
// replica sets, with a best-effort re-insert of the old row if the insert
// half fails.
func (rt *Router) Update(old, new []float64) error {
	if err := lifecycle.ValidateRow(rt.dims, old); err != nil {
		return err
	}
	if err := lifecycle.ValidateRow(rt.dims, new); err != nil {
		return err
	}
	g1, g2 := RouteRow(old, rt.shards), RouteRow(new, rt.shards)
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

// NodeStats is one node's view of itself.
type NodeStats struct {
	Addr   string  `json:"addr"`
	Rows   int64   `json:"rows"`
	Hosted []int   `json:"hosted_shards"`
	Err    string  `json:"error,omitempty"`
	P99Ms  float64 `json:"p99_ms"`
	Open   bool    `json:"breaker_open"`
}

// ClusterStats is the router's view of the cluster.
type ClusterStats struct {
	Rows       int64       `json:"rows"`
	Shards     int         `json:"global_shards"`
	Replicas   int         `json:"replication_factor"`
	Nodes      []NodeStats `json:"nodes"`
	ShardRows  []int64     `json:"shard_rows"`
	Unanswered int         `json:"unanswered_shards"`
}

// Stats polls every node and assembles the cluster shape. Each global
// shard's row count is taken from the first replica that answered, so the
// total counts every logical row exactly once regardless of rf.
func (rt *Router) Stats() ClusterStats {
	st := ClusterStats{Shards: rt.shards, Replicas: rt.rf, ShardRows: make([]int64, rt.shards)}
	perNode := make(map[string]map[int]int64, len(rt.order))
	for _, addr := range rt.order {
		cl := rt.clients[addr]
		ns := NodeStats{Addr: addr, Open: cl.breaker.open(), P99Ms: float64(cl.lat.p99()) / float64(time.Millisecond)}
		res, _, err := cl.call(&wire.Stats{ID: cl.id()})
		if err != nil {
			ns.Err = err.Error()
		} else if sr, ok := res.(*wire.StatsRes); ok {
			ns.Rows = sr.Rows
			ns.Hosted = sr.Hosted
			m := make(map[int]int64, len(sr.Hosted))
			for i, g := range sr.Hosted {
				if i < len(sr.ShardRows) {
					m[g] = sr.ShardRows[i]
				}
			}
			perNode[addr] = m
		}
		st.Nodes = append(st.Nodes, ns)
	}
	for g := 0; g < rt.shards; g++ {
		counted := false
		for _, node := range rt.replicas[g] {
			if m, ok := perNode[node]; ok {
				if rows, hosted := m[g]; hosted {
					st.ShardRows[g] = rows
					st.Rows += rows
					counted = true
					break
				}
			}
		}
		if !counted {
			st.Unanswered++
		}
	}
	return st
}
