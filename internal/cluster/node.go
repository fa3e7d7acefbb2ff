package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/serve"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/wire"
)

// nodeChunkRows is how many rows a node accumulates per RowChunk frame.
const nodeChunkRows = 512

// Node hosts a subset of the cluster's global shards — each one range slot
// of a BuildShards build — behind the wire protocol. One Node serves
// any number of router connections; every request runs in its own
// goroutine and writes frame-atomically onto its connection, so a slow
// stream never blocks a Cancel from being read.
type Node struct {
	dims    int
	gshards int // K, the cluster-wide global shard count
	ranges  shard.Ranges
	shards  map[int]*shard.Sharded
	hosted  []int // sorted keys of shards

	// adm, when non-nil, bounds concurrent requests exactly like the HTTP
	// serving tier; rejected requests answer an Overloaded error frame.
	adm *serve.Admission

	// built is how long the node took to build its shards, reported in
	// its stats (WithBuildTime).
	built time.Duration

	// delay is an injected per-request straggler latency (coaxserve node
	// -straggler: the slow replica hedged reads race); draining, when > 0,
	// rejects every request with an Overloaded error carrying that many
	// milliseconds of Retry-After (a deterministic overload for tests and
	// rolling restarts).
	delay    atomic.Int64
	draining atomic.Int64

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NodeOption configures a Node.
type NodeOption func(*Node)

// WithAdmission bounds the node's concurrent requests; nil disables.
func WithAdmission(adm *serve.Admission) NodeOption {
	return func(n *Node) { n.adm = adm }
}

// WithBuildTime records how long building the hosted shards took; the node
// reports it in its stats, and a router's verbose /healthz names it.
func WithBuildTime(d time.Duration) NodeOption {
	return func(n *Node) { n.built = d }
}

// NewNode wraps the hosted global shards (global shard id → its slot, as
// BuildShards returns them). Every engine must be slot g of one build of
// globalShards slots, and at least one shard must be hosted.
func NewNode(shards map[int]*shard.Sharded, globalShards int, opts ...NodeOption) (*Node, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: node hosts no shards")
	}
	n := &Node{
		gshards: globalShards,
		shards:  shards,
		conns:   make(map[net.Conn]struct{}),
	}
	for g, s := range shards {
		if g < 0 || g >= globalShards {
			return nil, fmt.Errorf("cluster: hosted shard %d out of range [0,%d)", g, globalShards)
		}
		if s == nil {
			return nil, fmt.Errorf("cluster: hosted shard %d has no engine", g)
		}
		ranges, slot, ok := s.Slot()
		switch {
		case !ok || slot != g || len(ranges.Cuts) != globalShards-1:
			return nil, fmt.Errorf("cluster: hosted shard %d is not slot %d of a %d-slot range build", g, g, globalShards)
		case n.hosted == nil:
			n.dims, n.ranges = s.Dims(), ranges
		case s.Dims() != n.dims || ranges.Col != n.ranges.Col || !slices.Equal(ranges.Cuts, n.ranges.Cuts):
			return nil, fmt.Errorf("cluster: hosted shard %d comes from another build than shard %d", g, n.hosted[0])
		}
		n.hosted = append(n.hosted, g)
	}
	sort.Ints(n.hosted)
	for _, o := range opts {
		o(n)
	}
	return n, nil
}

// SetDelay injects an artificial latency before every request — the
// straggler that demonstrates hedged reads.
func (n *Node) SetDelay(d time.Duration) { n.delay.Store(int64(d)) }

// SetDraining makes the node reject every request with an Overloaded
// error carrying retryAfter; zero resumes serving.
func (n *Node) SetDraining(retryAfter time.Duration) {
	n.draining.Store(retryAfter.Milliseconds())
}

// Rows reports the node's total live rows across hosted shards.
func (n *Node) Rows() int64 {
	var total int64
	for _, g := range n.hosted {
		total += int64(n.shards[g].Len())
	}
	return total
}

// Serve accepts router connections on ln until Close. It always returns a
// non-nil error (net.ErrClosed after a clean Close).
func (n *Node) Serve(ln net.Listener) error {
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if n.closed.Load() {
				return net.ErrClosed
			}
			return err
		}
		n.mu.Lock()
		if n.closed.Load() {
			n.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		n.conns[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				n.mu.Lock()
				delete(n.conns, c)
				n.mu.Unlock()
				c.Close()
			}()
			n.serveConn(c)
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for
// in-flight request goroutines to drain.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	n.mu.Lock()
	ln := n.ln
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	n.wg.Wait()
	return err
}

// connState is the per-connection request registry: Cancel frames and a
// dropped connection raise the stop flag of the requests they target.
type connState struct {
	mu    sync.Mutex
	stops map[uint64]*atomic.Bool
}

func (cs *connState) register(id uint64) *atomic.Bool {
	stop := &atomic.Bool{}
	cs.mu.Lock()
	cs.stops[id] = stop
	cs.mu.Unlock()
	return stop
}

func (cs *connState) unregister(id uint64) {
	cs.mu.Lock()
	delete(cs.stops, id)
	cs.mu.Unlock()
}

func (cs *connState) cancel(id uint64) {
	cs.mu.Lock()
	if stop := cs.stops[id]; stop != nil {
		stop.Store(true)
		obs.NodeCancelled.Inc()
	}
	cs.mu.Unlock()
}

func (cs *connState) cancelAll() {
	cs.mu.Lock()
	for _, stop := range cs.stops {
		stop.Store(true)
	}
	cs.mu.Unlock()
}

// serveConn drives one router connection: handshake, then a read loop
// that dispatches each request to its own goroutine. The loop returns on
// any read error; in-flight requests are stopped and awaited so their
// writes never race a closing connection. A request that panics ends with
// an Internal error frame for its id; the node and the connection go on.
func (n *Node) serveConn(raw net.Conn) {
	c := wire.NewConn(raw)
	w := wire.Welcome{Dims: n.dims, Shards: n.gshards, Rows: n.Rows(), Col: n.ranges.Col, Cuts: n.ranges.Cuts}
	if err := wire.ServerHandshake(c, w); err != nil {
		return
	}
	cs := &connState{stops: make(map[uint64]*atomic.Bool)}
	var reqs sync.WaitGroup
	defer func() {
		cs.cancelAll()
		reqs.Wait()
	}()
	for {
		m, err := c.Recv()
		if err != nil {
			return // clean EOF, dropped conn, or garbage: either way the conn is done
		}
		switch req := m.(type) {
		case *wire.Cancel:
			cs.cancel(req.ID)
			continue
		case *wire.Ping:
			c.Send(&wire.Pong{ID: req.ID})
			continue
		}
		id, ok := requestID(m)
		if !ok {
			c.Send(&wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected %T frame", m)})
			return
		}
		obs.NodeRequests.Inc()
		if ra := n.draining.Load(); ra > 0 {
			obs.NodeShed.Inc()
			c.Send(&wire.Error{ID: id, Code: wire.CodeOverloaded, RetryAfterMillis: ra, Msg: "node draining"})
			continue
		}
		if n.adm != nil {
			if err := n.adm.Acquire(context.Background()); err != nil {
				obs.NodeShed.Inc()
				c.Send(&wire.Error{ID: id, Code: wire.CodeOverloaded,
					RetryAfterMillis: n.adm.RetryAfter().Milliseconds(), Msg: "node overloaded"})
				continue
			}
		}
		stop := cs.register(id)
		reqs.Add(1)
		go func(m wire.Message) {
			defer reqs.Done()
			defer cs.unregister(id)
			if n.adm != nil {
				defer n.adm.Release()
			}
			defer func() {
				if v := recover(); v != nil {
					log.Printf("cluster: node request %d panicked: %v\n%s", id, v, debug.Stack())
					c.Send(&wire.Error{ID: id, Code: wire.CodeInternal, Msg: fmt.Sprintf("node: request panicked: %v", v)})
				}
			}()
			n.sleepDelay(stop)
			switch req := m.(type) {
			case *wire.Query:
				n.handleQuery(c, req, stop)
			case *wire.Agg:
				n.handleAgg(c, req, stop)
			case *wire.Mutate:
				n.handleMutate(c, req)
			case *wire.Stats:
				n.handleStats(c, req)
			}
		}(m)
	}
}

// requestID extracts the request id of a dispatchable frame.
func requestID(m wire.Message) (uint64, bool) {
	switch req := m.(type) {
	case *wire.Query:
		return req.ID, true
	case *wire.Agg:
		return req.ID, true
	case *wire.Mutate:
		return req.ID, true
	case *wire.Stats:
		return req.ID, true
	}
	return 0, false
}

// sleepDelay applies the injected straggler latency, waking early if the
// request is cancelled meanwhile.
func (n *Node) sleepDelay(stop *atomic.Bool) {
	d := time.Duration(n.delay.Load())
	if d <= 0 {
		return
	}
	const step = time.Millisecond
	for waited := time.Duration(0); waited < d; waited += step {
		if stop.Load() {
			return
		}
		time.Sleep(min(step, d-waited))
	}
}

// engineFor resolves a requested global shard, answering BadShard when the
// node does not host it (a stale router placement).
func (n *Node) engineFor(c *wire.Conn, id uint64, g int) *shard.Sharded {
	if s := n.shards[g]; s != nil {
		return s
	}
	c.Send(&wire.Error{ID: id, Code: wire.CodeBadShard, Msg: fmt.Sprintf("shard %d not hosted", g)})
	return nil
}

// eachShard answers one Query or Agg request over rectangle [lo, hi]:
// it checks the rectangle, then hands each requested shard to answer in
// request order — answer sends the shard's frames and reports whether its
// scan completed — and ends the stream with Done. The per-request stop flag
// is checked between shards and rides into every local scan as its abort
// hook, so a Cancel frame stops remote work within about one page — the
// cluster-level mirror of the in-process contract.
func (n *Node) eachShard(c *wire.Conn, id uint64, shards []int, lo, hi []float64, stop *atomic.Bool,
	answer func(g int, s *shard.Sharded, r index.Rect, spec index.Spec) (complete bool, err error)) {
	if len(lo) != n.dims || len(hi) != n.dims {
		c.Send(&wire.Error{ID: id, Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("rect has %d/%d dims, node has %d", len(lo), len(hi), n.dims)})
		return
	}
	r := index.Rect{Min: lo, Max: hi}
	complete := true
	for _, g := range shards {
		s := n.engineFor(c, id, g)
		if s == nil {
			return
		}
		if stop.Load() {
			complete = false
			break
		}
		ok, err := answer(g, s, r, index.Spec{Abort: stop.Load})
		if err != nil {
			return
		}
		complete = complete && ok
	}
	c.Send(&wire.Done{ID: id, Complete: complete && !stop.Load()})
}

// handleQuery folds each requested shard into its first Keep rows and its
// count, capped at Limit, and frames the rows as RowChunks of nodeChunkRows
// rows sliced from the fold, then one ShardEOF carrying the count.
func (n *Node) handleQuery(c *wire.Conn, q *wire.Query, stop *atomic.Bool) {
	keep := index.RowsState{Keep: int(q.Keep), Limit: int(q.Limit)}
	n.eachShard(c, q.ID, q.Shards, q.Min, q.Max, stop, func(g int, s *shard.Sharded, r index.Rect, spec index.Spec) (bool, error) {
		states, complete := s.ExecRows([]index.Rect{r}, spec, keep, nil)
		st := &states[0]
		for rows := st.Rows; len(rows) > 0; {
			chunk := rows[:min(len(rows), nodeChunkRows*n.dims)]
			if err := c.Send(&wire.RowChunk{ID: q.ID, Shard: g, Rows: chunk}); err != nil {
				return false, err
			}
			rows = rows[len(chunk):]
		}
		// A scan the limit stopped is still complete for the router's
		// purposes — it has every row it asked this shard for.
		complete = complete || keep.Limit > 0 && st.Count >= q.Limit
		return complete, c.Send(&wire.ShardEOF{ID: q.ID, Shard: g, Rows: st.Count, Complete: complete})
	})
}

// handleAgg folds each requested shard into one AggPart partial. Partials
// are exact per shard; the router merges them in global shard order, so
// repeated distributed executions are bit-identical to each other.
func (n *Node) handleAgg(c *wire.Conn, q *wire.Agg, stop *atomic.Bool) {
	aspec := index.AggSpec{Op: index.AggOp(q.Op), Col: q.Col, Group: q.Group}
	if err := aspec.Validate(n.dims); err != nil {
		c.Send(&wire.Error{ID: q.ID, Code: wire.CodeBadRequest, Msg: err.Error()})
		return
	}
	n.eachShard(c, q.ID, q.Shards, q.Min, q.Max, stop, func(g int, s *shard.Sharded, r index.Rect, spec index.Spec) (bool, error) {
		st, complete := s.ExecAgg(r, spec, aspec, nil)
		return complete, c.Send(partFromState(q.ID, g, st, complete))
	})
}

// partFromState flattens one shard's AggState into its wire partial:
// grouped states emit one cell per key in ascending key order (the
// deterministic order AggState.GroupKeys defines).
func partFromState(id uint64, g int, st *index.AggState, complete bool) *wire.AggPart {
	part := &wire.AggPart{ID: id, Shard: g, Grouped: st.Spec.Group >= 0, Complete: complete}
	if !part.Grouped {
		if st.All.Count > 0 {
			part.Cells = []wire.AggCell{{Count: st.All.Count, Sum: st.All.Sum, Min: st.All.Min, Max: st.All.Max}}
		}
		return part
	}
	for _, k := range st.GroupKeys() {
		cell := st.Groups[k]
		part.Cells = append(part.Cells, wire.AggCell{Key: k, Count: cell.Count, Sum: cell.Sum, Min: cell.Min, Max: cell.Max})
	}
	return part
}

// stateFromPart inverts partFromState on the router side.
func stateFromPart(spec index.AggSpec, p *wire.AggPart) *index.AggState {
	st := index.NewAggState(spec)
	if !p.Grouped {
		if len(p.Cells) > 0 {
			c := p.Cells[0]
			st.All = index.AggCell{Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max}
		}
		return st
	}
	for _, c := range p.Cells {
		st.Groups[c.Key] = &index.AggCell{Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max}
	}
	return st
}

// handleMutate applies one mutation to a hosted shard and acks with the
// node's live row count. Logical failures map to their own error codes so
// the router can translate them back into the engine's error types.
func (n *Node) handleMutate(c *wire.Conn, q *wire.Mutate) {
	s := n.engineFor(c, q.ID, q.Shard)
	if s == nil {
		return
	}
	var err error
	switch q.Op {
	case wire.MutInsert:
		err = s.Insert(q.Row)
	case wire.MutDelete:
		err = s.Delete(q.Row)
	case wire.MutUpdate:
		err = s.Update(q.Row, q.New)
	default:
		c.Send(&wire.Error{ID: q.ID, Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unknown mutation op %d", q.Op)})
		return
	}
	if err != nil {
		c.Send(&wire.Error{ID: q.ID, Code: mutationCode(err), Msg: err.Error()})
		return
	}
	c.Send(&wire.MutAck{ID: q.ID, Rows: n.Rows()})
}

func mutationCode(err error) uint8 {
	var re *lifecycle.RowError
	switch {
	case errors.As(err, &re):
		return wire.CodeBadRow
	case errors.Is(err, core.ErrNotFound):
		return wire.CodeNotFound
	}
	return wire.CodeInternal
}

// handleStats reports the node's shape.
func (n *Node) handleStats(c *wire.Conn, q *wire.Stats) {
	res := &wire.StatsRes{ID: q.ID, Rows: n.Rows(), Hosted: append([]int(nil), n.hosted...), BuildSeconds: n.built.Seconds()}
	for _, g := range res.Hosted {
		res.ShardRows = append(res.ShardRows, int64(n.shards[g].Len()))
		res.MemoryOverhead += n.shards[g].MemoryOverhead()
	}
	c.Send(res)
}
