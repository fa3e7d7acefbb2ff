package serve

import (
	"errors"
	"sync"
)

// Single-flight coalescing: identical concurrent misses share one compute
// call instead of each fanning out across the engine. Minimal reimplementation
// of the well-known pattern (golang.org/x/sync/singleflight) so the layer
// stays dependency-free.

// flightCall is one in-flight compute shared by its coalesced callers.
type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

// flightGroup deduplicates concurrent calls by key. The zero value is
// ready to use.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// errLeaderPanicked is what the callers coalesced onto a leader whose fn
// panicked receive; the panic itself goes on up the leader's stack.
var errLeaderPanicked = errors.New("serve: the coalesced computation panicked")

// Do executes fn once per key among concurrent callers: the first caller
// (the leader) runs fn; callers arriving while it runs block and receive
// the same result with shared=true. Once the leader finishes, the key is
// forgotten — a later Do starts fresh. A panic in fn finishes the call
// too: the waiting callers get errLeaderPanicked and the leader panics on.
func (g *flightGroup) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{err: errLeaderPanicked}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
