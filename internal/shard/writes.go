package shard

import (
	"sync"
	"sync/atomic"

	"github.com/coax-index/coax/internal/index"
)

// WriteRingSize is how many mutations a WriteRing remembers. A capture older
// than that many mutations cannot be revalidated and reads as touched.
const WriteRingSize = 1024

// WriteRing is one shard's mutation version together with the row images of
// its last WriteRingSize mutations: where each write landed. A result cache
// holding an answer captured at version v asks Touched whether any write
// since v lies inside the answer's rectangle; one that did not leaves the
// answer's rows, their scan order and every fold over them bit-identical,
// because an insert only adds its row to an overflow page in sort order, a
// delete only tombstones or removes its own row, and the models that route
// rows are fixed between rebuilds. What reorders rows — Compact, an
// epoch-swap rebuild, an insert the index cannot bound — calls Reset, which
// makes every earlier capture stale.
//
// The zero value is ready: version 0, nothing recorded. Every method is safe
// from any goroutine. A mutator calls Record or Reset before it acknowledges
// its write — the engine while it still holds the shard's write lock — so a
// lookup after the ack sees it.
type WriteRing struct {
	ver atomic.Uint64 // read lock-free by the cache's fast path

	mu    sync.Mutex // orders images against ver: a Touched that reads v sees every image up to v
	floor uint64     // version of the last Reset; no capture older than it revalidates
	imgs  [WriteRingSize]uint8
	rows  []float64 // WriteRingSize × 2 rows of dims values, allocated by the first Record
	dims  int
}

// Version reports the current mutation version without locking.
func (w *WriteRing) Version() uint64 { return w.ver.Load() }

// Record moves the version by one for a mutation that wrote row a and, for
// an update applied under one version, row b (nil otherwise).
func (w *WriteRing) Record(a, b []float64) {
	w.mu.Lock()
	if w.rows == nil {
		w.dims = len(a)
		w.rows = make([]float64, WriteRingSize*2*w.dims)
	}
	v := w.ver.Load() + 1
	at := int(v % WriteRingSize)
	base := at * 2 * w.dims
	copy(w.rows[base:base+w.dims], a)
	w.imgs[at] = 1
	if b != nil {
		copy(w.rows[base+w.dims:base+2*w.dims], b)
		w.imgs[at] = 2
	}
	w.ver.Store(v)
	w.mu.Unlock()
}

// Reset moves the version by one for a change that may reorder rows or
// whose images are unknown, and raises the floor to it: every capture taken
// before it reads as touched.
func (w *WriteRing) Reset() {
	w.mu.Lock()
	v := w.ver.Load() + 1
	w.floor = v
	w.ver.Store(v)
	w.mu.Unlock()
}

// Touched reports the current version and whether an answer to r captured
// at version since may have changed by now. It is false only when every
// version in (since, now] was recorded by Record, is still held, and wrote
// no row inside r; a Reset after since, or more than WriteRingSize
// mutations since it, read as touched.
func (w *WriteRing) Touched(since uint64, r index.Rect) (now uint64, touched bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now = w.ver.Load()
	if since == now {
		return now, false
	}
	if since < w.floor || since > now || now-since > WriteRingSize {
		return now, true
	}
	for v := since + 1; v <= now; v++ {
		at := int(v % WriteRingSize)
		base := at * 2 * w.dims
		for k := 0; k < int(w.imgs[at]); k++ {
			if r.Contains(w.rows[base+k*w.dims : base+(k+1)*w.dims]) {
				return now, true
			}
		}
	}
	return now, false
}
