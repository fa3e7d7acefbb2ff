package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/wire"
)

// cancelGrace is how long a cancelled RPC waits for the node to terminate
// its stream with Done before force-closing the connection. The node
// notices a cancel within about one page of scan work, so the grace only
// expires when the node is wedged or the network ate the frames.
const cancelGrace = 2 * time.Second

// dialTimeout bounds connection establishment to a node.
const dialTimeout = 2 * time.Second

// client is the router's handle on one node: a pool of handshaken
// connections, the node's circuit breaker, and its latency window (the
// hedge-delay source). One RPC borrows one connection for its lifetime —
// streams never interleave, so a failed stream poisons only itself.
type client struct {
	addr    string
	breaker *breaker
	lat     *latencyTracker

	mu      sync.Mutex
	idle    []*nodeConn
	welcome *wire.Welcome // from the first successful handshake
	nextID  atomic.Uint64
	closed  bool
}

type nodeConn struct {
	raw net.Conn
	c   *wire.Conn
}

func newClient(addr string) *client {
	return &client{
		addr:    addr,
		breaker: newBreaker(0, 0),
		lat:     &latencyTracker{},
	}
}

// get borrows an idle connection or dials a new one.
func (cl *client) get() (*nodeConn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, fmt.Errorf("cluster: client for %s closed", cl.addr)
	}
	if n := len(cl.idle); n > 0 {
		nc := cl.idle[n-1]
		cl.idle = cl.idle[:n-1]
		cl.mu.Unlock()
		return nc, nil
	}
	cl.mu.Unlock()

	raw, err := net.DialTimeout("tcp", cl.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	// A node that accepts but never answers (a stopped process) must not
	// hold the handshake, and every RPC waiting on it, forever.
	raw.SetDeadline(time.Now().Add(dialTimeout))
	c := wire.NewConn(raw)
	w, err := wire.ClientHandshake(c)
	if err != nil {
		raw.Close()
		return nil, err
	}
	raw.SetDeadline(time.Time{})
	cl.mu.Lock()
	cl.welcome = w
	cl.mu.Unlock()
	return &nodeConn{raw: raw, c: c}, nil
}

// put returns a connection whose stream ended at a clean frame boundary.
func (cl *client) put(nc *nodeConn) {
	nc.raw.SetReadDeadline(time.Time{})
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		nc.raw.Close()
		return
	}
	cl.idle = append(cl.idle, nc)
	cl.mu.Unlock()
}

func (cl *client) close() {
	cl.mu.Lock()
	cl.closed = true
	idle := cl.idle
	cl.idle = nil
	cl.mu.Unlock()
	for _, nc := range idle {
		nc.raw.Close()
	}
}

// id returns a connection-unique request id.
func (cl *client) id() uint64 { return cl.nextID.Add(1) }

// overloadedError is the wire-level overload signal translated into an
// error the router (and ultimately the HTTP layer) can act on.
type overloadedError struct {
	retryAfter time.Duration
}

func (e *overloadedError) Error() string {
	return fmt.Sprintf("cluster: node overloaded, retry after %s", e.retryAfter)
}

// remoteError is a non-overload Error frame: the node is healthy but
// refused the request (bad row, row not found, internal failure).
type remoteError struct {
	code uint8
	msg  string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("cluster: node error (code %d): %s", e.code, e.msg)
}

// part is one shard's whole answer to one request: a Query's rows (every
// RowChunk up to the shard's ShardEOF) and the count that EOF carries, or
// an Agg's partial.
type part struct {
	rows  []float64
	count int64
	agg   *wire.AggPart
}

// stream runs one Query or Agg RPC: send req, then hand each requested
// shard's answer to onPart as one part, in the order the node sends them,
// until Done (nil) or Error. complete is the shard's ShardEOF or AggPart
// flag. A node streams one shard at a time, so the RowChunks gathered since
// the last ShardEOF are that shard's rows. stop is polled via a watcher that
// sends a Cancel frame the moment it fires; after a cancel the node still
// terminates with Done, bounded by cancelGrace before the connection is
// force-closed.
//
// The returned bool is Done.Complete. A transport failure counts against
// the node's breaker; an Error frame does not.
func (cl *client) stream(req wire.Message, stopCh <-chan struct{}, onPart func(shard int, p part, complete bool)) (bool, error) {
	start := time.Now()
	nc, err := cl.get()
	if err != nil {
		cl.breaker.failure()
		obs.ClusterRPCs.Inc()
		obs.ClusterRPCErrors.Inc()
		return false, err
	}
	obs.ClusterRPCs.Inc()

	fail := func(err error) (bool, error) {
		nc.raw.Close()
		cl.breaker.failure()
		obs.ClusterRPCErrors.Inc()
		return false, err
	}
	id, _ := requestID(req)
	if err := nc.c.Send(req); err != nil {
		return fail(err)
	}

	// The cancel watcher shares the write side of the connection (writes
	// are frame-atomic), and arms the read deadline so a node that never
	// answers the cancel cannot hold this RPC forever.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-stopCh:
			nc.c.Send(&wire.Cancel{ID: id})
			nc.raw.SetReadDeadline(time.Now().Add(cancelGrace))
		case <-watchDone:
		}
	}()

	var rows []float64 // the open shard's rows
	open := -1         // the shard they belong to
	for {
		m, err := nc.c.Recv()
		if err != nil {
			return fail(err)
		}
		switch f := m.(type) {
		case *wire.RowChunk:
			if f.ID != id {
				continue
			}
			if open >= 0 && f.Shard != open {
				return fail(fmt.Errorf("cluster: node %s interleaved shards %d and %d", cl.addr, open, f.Shard))
			}
			open = f.Shard
			if rows == nil {
				rows = f.Rows // decoded into its own slice: take it over
			} else {
				rows = append(rows, f.Rows...)
			}
		case *wire.ShardEOF:
			if f.ID != id {
				continue
			}
			onPart(f.Shard, part{rows: rows, count: f.Rows}, f.Complete)
			rows, open = nil, -1
		case *wire.AggPart:
			if f.ID == id {
				onPart(f.Shard, part{agg: f}, f.Complete)
			}
		case *wire.Done:
			if f.ID != id {
				continue
			}
			cl.breaker.success()
			cl.lat.observe(time.Since(start))
			obs.ClusterRPCSeconds.Observe(time.Since(start).Seconds())
			cl.put(nc)
			return f.Complete, nil
		case *wire.Error:
			if f.ID != id && f.ID != 0 {
				continue
			}
			// The node answered: the transport works. Return the conn and
			// report the logical failure.
			cl.breaker.success()
			cl.put(nc)
			if f.Code == wire.CodeOverloaded {
				return false, &overloadedError{retryAfter: f.RetryAfter()}
			}
			return false, &remoteError{code: f.Code, msg: f.Msg}
		}
	}
}

// call runs one unary RPC (Mutate or Stats): send req, wait for its ack.
// sent reports whether req was handed to a connection — from then on the
// node may have acted on it, whatever call returns.
func (cl *client) call(req wire.Message) (res wire.Message, sent bool, err error) {
	start := time.Now()
	nc, err := cl.get()
	if err != nil {
		cl.breaker.failure()
		obs.ClusterRPCs.Inc()
		obs.ClusterRPCErrors.Inc()
		return nil, false, err
	}
	obs.ClusterRPCs.Inc()
	id, _ := requestID(req)
	if err := nc.c.Send(req); err != nil {
		nc.raw.Close()
		cl.breaker.failure()
		obs.ClusterRPCErrors.Inc()
		return nil, true, err
	}
	nc.raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m, err := nc.c.Recv()
		if err != nil {
			nc.raw.Close()
			cl.breaker.failure()
			obs.ClusterRPCErrors.Inc()
			return nil, true, err
		}
		switch f := m.(type) {
		case *wire.MutAck:
			if f.ID != id {
				continue
			}
			cl.breaker.success()
			cl.lat.observe(time.Since(start))
			obs.ClusterRPCSeconds.Observe(time.Since(start).Seconds())
			cl.put(nc)
			return f, true, nil
		case *wire.StatsRes:
			if f.ID != id {
				continue
			}
			cl.breaker.success()
			cl.put(nc)
			return f, true, nil
		case *wire.Error:
			if f.ID != id && f.ID != 0 {
				continue
			}
			cl.breaker.success()
			cl.put(nc)
			if f.Code == wire.CodeOverloaded {
				return nil, true, &overloadedError{retryAfter: f.RetryAfter()}
			}
			return nil, true, &remoteError{code: f.Code, msg: f.Msg}
		}
	}
}
