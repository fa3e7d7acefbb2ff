package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
)

// fakeInv is a hand-cranked Invalidator over the engine's own write rings:
// the test records writes (write) or moves a version with no images (bump,
// as a compaction or a rebuild does). Every rect spans all shards unless
// span is set.
type fakeInv struct {
	rings []shard.WriteRing
	span  func(r index.Rect) (int, int)
}

func newFakeInv(shards int) *fakeInv { return &fakeInv{rings: make([]shard.WriteRing, shards)} }

func (f *fakeInv) NumShards() int            { return len(f.rings) }
func (f *fakeInv) ShardVersion(i int) uint64 { return f.rings[i].Version() }
func (f *fakeInv) ShardSpan(r index.Rect) (int, int) {
	if f.span != nil {
		return f.span(r)
	}
	return 0, len(f.rings) - 1
}
func (f *fakeInv) Touched(i int, since uint64, r index.Rect) (uint64, bool) {
	return f.rings[i].Touched(since, r)
}

// bump moves shard i's version past every capture.
func (f *fakeInv) bump(i int) { f.rings[i].Reset() }

// write records one mutation of shard i that wrote row a (and b, for an
// update under one version).
func (f *fakeInv) write(i int, a, b []float64) { f.rings[i].Record(a, b) }

func rect2(x0, y0, x1, y1 float64) index.Rect {
	return index.Rect{Min: []float64{x0, y0}, Max: []float64{x1, y1}}
}

func TestKeyCanonicalization(t *testing.T) {
	r := rect2(1, 2, 3, 4)
	base := Key(r, 100, false, "")
	if Key(rect2(1, 2, 3, 4), 100, false, "") != base {
		t.Error("identical queries produced different keys")
	}
	distinct := []string{
		Key(rect2(1.5, 2, 3, 4), 100, false, ""),
		Key(rect2(1, 2, 3, 4.5), 100, false, ""),
		Key(r, 101, false, ""),
		Key(r, -1, false, ""),
		Key(r, 100, true, ""),
	}
	seen := map[string]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("variant %d collided with another key", i)
		}
		seen[k] = true
	}
	// -0 and +0 have different bit patterns, so they are different keys;
	// both are answered correctly, just without sharing a cache line.
	if Key(rect2(0, 2, 3, 4), 100, false, "") == Key(rect2(math.Copysign(0, -1), 2, 3, 4), 100, false, "") {
		t.Error("negative zero folded into positive zero")
	}
}

func TestCacheStaleInvalidation(t *testing.T) {
	inv := newFakeInv(4)
	c := NewCache(inv, 64)
	key := Key(rect2(0, 0, 1, 1), -1, false, "")

	c.Put(key, rect2(0, 0, 1, 1), 1, []uint64{inv.ShardVersion(1), inv.ShardVersion(2)}, "answer")
	if v, ok := c.Get(key); !ok || v != "answer" {
		t.Fatalf("expected hit, got (%v, %v)", v, ok)
	}
	// A mutation on a shard outside the captured span leaves the entry valid.
	inv.bump(0)
	inv.bump(3)
	if _, ok := c.Get(key); !ok {
		t.Fatal("mutation outside the span invalidated the entry")
	}
	// A mutation inside the span evicts it — permanently.
	inv.bump(2)
	if _, ok := c.Get(key); ok {
		t.Fatal("stale entry was served")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.StaleEvictions != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 stale eviction, 1 miss", st)
	}
}

func TestCacheLRUBound(t *testing.T) {
	inv := newFakeInv(1)
	cap := 32
	c := NewCache(inv, cap)
	for i := 0; i < 50*cap; i++ {
		c.Put(fmt.Sprintf("key-%d", i), rect2(0, 0, 1, 1), 0, []uint64{0}, i)
	}
	if c.Len() > cap {
		t.Fatalf("cache holds %d entries, capacity %d", c.Len(), cap)
	}
	if ev := c.Stats().LRUEvictions; ev == 0 {
		t.Fatal("no LRU evictions recorded despite overfill")
	}
	// Replacing an existing key must not grow the cache.
	before := c.Len()
	c.Put("key-1599", rect2(0, 0, 1, 1), 0, []uint64{0}, "replaced")
	if c.Len() != before {
		t.Fatalf("replacement changed len from %d to %d", before, c.Len())
	}
}

func TestCacheLRUKeepsRecent(t *testing.T) {
	inv := newFakeInv(1)
	// Single-entry stripes: every stripe holds exactly its most recent key.
	c := NewCache(inv, 1)
	c.Put("a", rect2(0, 0, 1, 1), 0, []uint64{0}, 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	// A second key on the same stripe evicts "a"; on a different stripe both
	// live. Either way the most recently inserted key must be present.
	c.Put("b", rect2(0, 0, 1, 1), 0, []uint64{0}, 2)
	if _, ok := c.Get("b"); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// The cache accounts the bytes of the reply bodies it holds through every
// way an entry leaves it, and declines a body too large to be worth a slot.
func TestCacheBytesAccounting(t *testing.T) {
	inv := newFakeInv(2)
	c := NewCache(inv, 1) // one entry per stripe
	body := func(n int) []byte { return make([]byte, n) }
	held := func(want int64, why string) {
		t.Helper()
		if got := c.Stats().Bytes; got != want {
			t.Fatalf("%s: cache accounts %d bytes, want %d", why, got, want)
		}
	}

	c.Put("a", rect2(0, 0, 1, 1), 0, []uint64{0}, body(100))
	held(100, "first put")
	c.Put("a", rect2(0, 0, 1, 1), 0, []uint64{0}, body(40))
	held(40, "replacement")
	c.Put("not a body", rect2(0, 0, 1, 1), 0, []uint64{0}, 12345)
	held(40, "a non-[]byte value weighs nothing")

	// LRU eviction: find a second key on a's stripe.
	other := ""
	for i := 0; other == ""; i++ {
		if k := fmt.Sprintf("k%d", i); fnv64(k)%cacheShards == fnv64("a")%cacheShards {
			other = k
		}
	}
	c.Put(other, rect2(0, 0, 1, 1), 1, []uint64{0}, body(7))
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived an over-capacity stripe")
	}
	held(7, "LRU eviction")

	// Stale eviction.
	inv.bump(1)
	if _, ok := c.Get(other); ok {
		t.Fatal("stale entry was served")
	}
	held(0, "stale eviction")

	// An oversize body is not retained; one at the limit is.
	c.Put("big", rect2(0, 0, 1, 1), 0, []uint64{0}, body(maxEntryBytes+1))
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversize body was retained")
	}
	held(0, "oversize put")
	c.Put("big", rect2(0, 0, 1, 1), 0, []uint64{0}, body(maxEntryBytes))
	held(maxEntryBytes, "body at the limit")
}

// An oversize answer is still computed once and shared with the callers
// that coalesced onto it; only retention is declined.
func TestQueryCacheOversizeSharedNotRetained(t *testing.T) {
	qc := NewQueryCache(newFakeInv(1), 16)
	r := rect2(0, 0, 1, 1)
	key := Key(r, -1, false, "")
	big := make([]byte, maxEntryBytes+1)

	var computes atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	compute := func() (any, error) {
		if computes.Add(1) == 1 {
			close(entered)
		}
		<-release
		return big, nil
	}
	const followers = 4
	var wg sync.WaitGroup
	for i := 0; i < 1+followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, fromCache, err := qc.Do(key, r, compute)
			if body, _ := v.([]byte); err != nil || fromCache || len(body) != len(big) {
				t.Errorf("Do = (%d bytes, fromCache %v, %v)", len(body), fromCache, err)
			}
		}()
	}
	<-entered
	// Followers coalesce only while the leader is inside compute: give them
	// a moment to park on it, as TestSingleFlightCoalesces does.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d coalesced callers", n, 1+followers)
	}
	if st := qc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize body retained: %+v", st)
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	var g flightGroup
	const n = 8
	gate := make(chan struct{})
	arrived := make(chan struct{}, n)
	var execs, shared atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, wasShared := g.Do("k", func() (any, error) {
				arrived <- struct{}{}
				<-gate // hold the flight open until every goroutine has joined
				execs.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%v, %v)", v, err)
			}
			if wasShared {
				shared.Add(1)
			}
		}()
	}
	<-arrived // the leader is inside fn; joiners now pile onto the same call
	// Give the joiners a moment to register before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", execs.Load())
	}
	if shared.Load() != n-1 {
		t.Fatalf("%d callers saw shared=true, want %d", shared.Load(), n-1)
	}
}

// TestSingleFlightLeaderPanic: a leader whose fn panics still finishes its
// call — the panic goes on up the leader's stack, the follower waiting on
// it gets an error, and the next Do on the key runs fn afresh.
func TestSingleFlightLeaderPanic(t *testing.T) {
	var g flightGroup
	entered, release := make(chan struct{}), make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		g.Do("k", func() (any, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, err, shared := g.Do("k", func() (any, error) { return "follower ran", nil })
		if !shared {
			err = errors.New("follower was not coalesced onto the leader")
		}
		followerErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower park on the call
	close(release)
	if p := <-leaderPanic; p != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	select {
	case err := <-followerErr:
		if !errors.Is(err, errLeaderPanicked) {
			t.Fatalf("follower got %v, want %v", err, errLeaderPanicked)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still blocked on a call whose leader panicked")
	}
	v, err, shared := g.Do("k", func() (any, error) { return 7, nil })
	if v != 7 || err != nil || shared {
		t.Fatalf("Do after the panic = (%v, %v, shared %v), want a fresh run", v, err, shared)
	}
}

func TestQueryCacheDo(t *testing.T) {
	inv := newFakeInv(2)
	qc := NewQueryCache(inv, 16)
	r := rect2(0, 0, 1, 1)
	key := Key(r, 10, false, "")
	var computes atomic.Int64
	compute := func() (any, error) {
		computes.Add(1)
		return "result", nil
	}

	v, fromCache, err := qc.Do(key, r, compute)
	if err != nil || v != "result" || fromCache {
		t.Fatalf("first Do = (%v, %v, %v)", v, fromCache, err)
	}
	v, fromCache, err = qc.Do(key, r, compute)
	if err != nil || v != "result" || !fromCache {
		t.Fatalf("second Do = (%v, %v, %v), want cache hit", v, fromCache, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computes.Load())
	}

	// A mutation invalidates; the next Do recomputes.
	inv.bump(1)
	_, fromCache, _ = qc.Do(key, r, compute)
	if fromCache {
		t.Fatal("stale entry served after version bump")
	}
	if computes.Load() != 2 {
		t.Fatalf("computed %d times after invalidation, want 2", computes.Load())
	}

	// Errors are not cached.
	boom := errors.New("boom")
	_, _, err = qc.Do(Key(r, 11, false, ""), r, func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	var computed atomic.Int64
	_, fromCache, _ = qc.Do(Key(r, 11, false, ""), r, func() (any, error) { computed.Add(1); return 1, nil })
	if fromCache || computed.Load() != 1 {
		t.Fatal("a failed compute left a cache entry behind")
	}
}

// A mutation that lands while the compute is running must poison the entry:
// the versions were captured before the scan, so the post-mutation lookup
// sees a mismatch even though the cached value was stored after the bump.
func TestQueryCacheMidScanMutation(t *testing.T) {
	inv := newFakeInv(1)
	qc := NewQueryCache(inv, 16)
	r := rect2(0, 0, 1, 1)
	key := Key(r, -1, false, "")
	_, _, err := qc.Do(key, r, func() (any, error) {
		inv.bump(0) // mutation overlaps the scan
		return "possibly-torn", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, fromCache, _ := qc.Do(key, r, func() (any, error) { return "fresh", nil }); fromCache {
		t.Fatal("entry stored during an overlapping mutation was served")
	}
}

// The invalidation rule, case by case: a cached answer survives a write
// whose rows all lie outside its rectangle and is evicted by anything that
// may have changed it.
func TestCacheEvictsOnlyWritesInside(t *testing.T) {
	r := rect2(0, 0, 1, 1)
	in, out, out2 := []float64{0.5, 0.5}, []float64{2, 0.5}, []float64{0.5, -1}
	type step func(inv *fakeInv)
	cases := []struct {
		name string
		// midScan runs inside the compute that fills the entry; after runs
		// once the entry is cached.
		midScan, after step
		served         bool
	}{
		{name: "write outside", after: func(inv *fakeInv) { inv.write(0, out, nil) }, served: true},
		{name: "same-shard update outside", after: func(inv *fakeInv) { inv.write(1, out, out2) }, served: true},
		{name: "write inside", after: func(inv *fakeInv) { inv.write(0, out, nil); inv.write(0, in, nil); inv.write(0, out2, nil) }},
		{name: "update moving a row in", after: func(inv *fakeInv) { inv.write(0, out, in) }},
		{name: "update moving a row out", after: func(inv *fakeInv) { inv.write(0, in, out) }},
		{name: "compaction or rebuild", after: func(inv *fakeInv) { inv.bump(1) }},
		{name: "writes past the ring", after: func(inv *fakeInv) {
			for i := 0; i <= shard.WriteRingSize; i++ {
				inv.write(0, out, nil)
			}
		}},
		{name: "cross-shard update, new row inside", after: func(inv *fakeInv) { inv.write(0, out, nil); inv.write(1, in, nil) }},
		{name: "cross-shard update, old row inside", after: func(inv *fakeInv) { inv.write(0, in, nil); inv.write(1, out, nil) }},
		{name: "cross-shard update outside", after: func(inv *fakeInv) { inv.write(0, out, nil); inv.write(1, out2, nil) }, served: true},
		{name: "mid-scan write inside", midScan: func(inv *fakeInv) { inv.write(1, in, nil) }},
		{name: "mid-scan write outside", midScan: func(inv *fakeInv) { inv.write(1, out, nil) }, served: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inv := newFakeInv(2)
			inv.write(0, in, nil) // before the capture: never revisited
			qc := NewQueryCache(inv, 16)
			key := Key(r, -1, false, "")
			if _, _, err := qc.Do(key, r, func() (any, error) {
				if tc.midScan != nil {
					tc.midScan(inv)
				}
				return "answer", nil
			}); err != nil {
				t.Fatal(err)
			}
			if tc.after != nil {
				tc.after(inv)
			}
			_, fromCache, _ := qc.Do(key, r, func() (any, error) { return "fresh", nil })
			if fromCache != tc.served {
				t.Fatalf("served from cache = %v, want %v", fromCache, tc.served)
			}
			st := qc.Stats()
			if tc.served {
				if st.Revalidations != 1 || st.StaleEvictions != 0 {
					t.Fatalf("stats = %+v, want 1 revalidation, no stale eviction", st)
				}
				// The revalidated capture is current: the next lookup is a
				// plain hit.
				if _, fromCache, _ := qc.Do(key, r, func() (any, error) { return "fresh", nil }); !fromCache {
					t.Fatal("revalidated entry missed on the next lookup")
				}
				if st := qc.Stats(); st.Hits != 2 || st.Revalidations != 1 {
					t.Fatalf("stats = %+v, want 2 hits, 1 revalidation", st)
				}
				return
			}
			if st.Revalidations != 0 || st.StaleEvictions != 1 {
				t.Fatalf("stats = %+v, want 1 stale eviction, no revalidation", st)
			}
		})
	}
}

func TestAdmissionNilAdmitsAll(t *testing.T) {
	var a *Admission
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release()
	if a.RetryAfter() != 0 {
		t.Fatal("nil admission has a retry hint")
	}
}

func TestAdmissionShedAndQueue(t *testing.T) {
	a := NewAdmission(1, 1, 200*time.Millisecond)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One request fits the queue and admits once the slot frees.
	admitted := make(chan error, 1)
	go func() { admitted <- a.Acquire(context.Background()) }()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })

	// The queue is full: the next request sheds immediately.
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow returned %v, want ErrOverloaded", err)
	}

	a.Release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued request not admitted after release: %v", err)
	}
	a.Release()

	st := a.Stats()
	if st.ShedQueueFull < 1 {
		t.Fatalf("stats = %+v, want at least one queue-full shed", st)
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	a := NewAdmission(1, 4, 30*time.Millisecond)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	start := time.Now()
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("timed-out wait returned %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("shed after %v, before the deadline", elapsed)
	}
}

func TestAdmissionContextCancel(t *testing.T) {
	a := NewAdmission(1, 4, time.Minute)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx) }()
	waitFor(t, func() bool { return a.Stats().Queued == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
