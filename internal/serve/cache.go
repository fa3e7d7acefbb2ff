package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/coax-index/coax/internal/index"
)

// cacheShards is the lock-striping factor of the result cache. Sixteen
// stripes keep lock contention negligible at serving concurrency without
// fragmenting a small capacity into useless per-stripe quotas.
const cacheShards = 16

// maxEntryBytes is the largest reply body the cache retains. A "limit":-1
// answer over a wide rectangle is table-sized; it is still computed once and
// shared with its coalesced callers, but holding it would spend the memory
// of thousands of ordinary entries on one LRU slot.
const maxEntryBytes = 1 << 20

// entry is one cached answer plus the invalidation capture that guards it:
// its rectangle and the versions of shards [lo, lo+len(vers)) at the moment
// the computing query began, or the versions a later lookup revalidated it
// at. A []byte value — a finished reply body — is shared read-only by every
// goroutine that hits the entry; nobody may write to it.
type entry struct {
	key  string
	rect index.Rect
	lo   int
	vers []uint64
	val  any
	size int64 // valueBytes(val)
}

// valueBytes is what the cache accounts for a value: the length of a reply
// body, nothing for any other type.
func valueBytes(val any) int64 {
	b, _ := val.([]byte)
	return int64(len(b))
}

// cacheStripe is one LRU stripe: a map for lookup and an intrusive list
// for recency, both under one mutex.
type cacheStripe struct {
	mu    sync.Mutex
	elems map[string]*list.Element
	lru   *list.List // front = most recently used
	cap   int
}

// Cache is a bounded, sharded-LRU result cache whose entries are
// invalidated by writes inside their rectangles. Get validates on every
// lookup (one atomic load per spanned shard while no version moved, the
// engine's Touched once one did) rather than on mutation, so the mutation
// path pays nothing for the cache's existence.
type Cache struct {
	src     Invalidator
	stripes [cacheShards]cacheStripe
	entries atomic.Int64
	bytes   atomic.Int64 // sum of the held entries' sizes
	cap     int

	hits, misses, revalidated, stale, evicts atomic.Int64
}

// NewCache builds a cache holding at most capacity entries (minimum one
// per stripe) validated against src.
func NewCache(src Invalidator, capacity int) *Cache {
	c := &Cache{src: src, cap: capacity}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.stripes {
		c.stripes[i].elems = make(map[string]*list.Element)
		c.stripes[i].lru = list.New()
		c.stripes[i].cap = per
	}
	return c
}

// fnv64 is FNV-1a over the key, selecting the stripe.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Get returns the cached value for key when one exists and no write since
// its capture may have changed it. A version that moved with no write inside
// the entry's rectangle is revalidated: the capture takes the current
// version and the entry is served. Otherwise the entry is evicted (it can
// never become valid again — versions only grow) and Get reports a miss.
// Touched is asked under the stripe lock; the engine's writers never take a
// stripe lock, so the lock order is one way.
func (c *Cache) Get(key string) (any, bool) {
	st := &c.stripes[fnv64(key)%cacheShards]
	st.mu.Lock()
	el, ok := st.elems[key]
	if !ok {
		st.mu.Unlock()
		c.misses.Add(1)
		cacheMisses.Inc()
		return nil, false
	}
	e := el.Value.(*entry)
	revalidated := false
	for i, v := range e.vers {
		if c.src.ShardVersion(e.lo+i) == v {
			continue
		}
		now, touched := c.src.Touched(e.lo+i, v, e.rect)
		if !touched {
			e.vers[i] = now
			revalidated = true
			continue
		}
		st.lru.Remove(el)
		delete(st.elems, key)
		st.mu.Unlock()
		c.entries.Add(-1)
		c.bytes.Add(-e.size)
		c.stale.Add(1)
		c.misses.Add(1)
		cacheStaleEvicts.Inc()
		cacheMisses.Inc()
		return nil, false
	}
	st.lru.MoveToFront(el)
	val := e.val
	st.mu.Unlock()
	c.hits.Add(1)
	cacheHits.Inc()
	if revalidated {
		c.revalidated.Add(1)
		cacheRevalidated.Inc()
	}
	return val, true
}

// Put stores val, the answer to r, for key with its version capture: vers
// holds the mutation versions of shards [lo, lo+len(vers)) read before the
// value was computed, and the cache owns it from here on. An existing entry
// for key is replaced; over-capacity stripes evict their least-recently-used
// entry. A body larger than maxEntryBytes is not retained.
func (c *Cache) Put(key string, r index.Rect, lo int, vers []uint64, val any) {
	size := valueBytes(val)
	if size > maxEntryBytes {
		return
	}
	rect := cloneRect(r)
	st := &c.stripes[fnv64(key)%cacheShards]
	st.mu.Lock()
	if el, ok := st.elems[key]; ok {
		e := el.Value.(*entry)
		c.bytes.Add(size - e.size)
		e.rect, e.lo, e.vers, e.val, e.size = rect, lo, vers, val, size
		st.lru.MoveToFront(el)
		st.mu.Unlock()
		return
	}
	st.elems[key] = st.lru.PushFront(&entry{key: key, rect: rect, lo: lo, vers: vers, val: val, size: size})
	evicted := 0
	freed := int64(0)
	for st.lru.Len() > st.cap {
		back := st.lru.Back()
		st.lru.Remove(back)
		e := back.Value.(*entry)
		delete(st.elems, e.key)
		freed += e.size
		evicted++
	}
	st.mu.Unlock()
	c.entries.Add(int64(1 - evicted))
	c.bytes.Add(size - freed)
	if evicted > 0 {
		c.evicts.Add(int64(evicted))
		cacheEvicts.Add(int64(evicted))
	}
}

// cloneRect copies r into one allocation: an entry keeps its rectangle for
// as long as it lives, past the request whose slices r may share.
func cloneRect(r index.Rect) index.Rect {
	d := len(r.Min)
	b := make([]float64, 2*d)
	copy(b, r.Min)
	copy(b[d:], r.Max)
	return index.Rect{Min: b[:d:d], Max: b[d:]}
}

// Len reports the entries currently held.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// CacheStats is the /stats view of the cache.
type CacheStats struct {
	Entries        int   `json:"entries"`
	Bytes          int64 `json:"bytes"`
	Capacity       int   `json:"capacity"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Revalidations  int64 `json:"revalidations"`
	StaleEvictions int64 `json:"stale_evictions"`
	LRUEvictions   int64 `json:"lru_evictions"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Entries:        c.Len(),
		Bytes:          c.bytes.Load(),
		Capacity:       c.cap,
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Revalidations:  c.revalidated.Load(),
		StaleEvictions: c.stale.Load(),
		LRUEvictions:   c.evicts.Load(),
	}
}
