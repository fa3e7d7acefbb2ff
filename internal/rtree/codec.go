package rtree

import (
	"fmt"

	"github.com/coax-index/coax/internal/binio"
)

// Snapshot codec, read side only: old snapshots stored R-tree outliers
// pre-order — the node capacities M and m, dims, rows, height, then each
// node's leaf flag and its entries: leaves as one contiguous row payload
// (leaf entry boxes alias the row, so only the row is stored), internal
// nodes by recursing into each child. Internal bounding boxes are
// recomputed on decode rather than trusted from the payload. Nothing
// writes the format any more.

// Decode reads a stored R-tree. Structural invariants — node fan-out,
// uniform leaf depth, total row count — are revalidated so corrupt
// payloads fail cleanly.
func Decode(r *binio.Reader) (*RTree, error) {
	rt := &RTree{}
	rt.cfg.MaxEntries = r.Int()
	minEntries := r.Int() // the retired split's underflow bound: checked, unused
	rt.dims = r.Int()
	rt.n = r.Int()
	rt.height = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rt.cfg.MaxEntries < 2 {
		return nil, fmt.Errorf("rtree: MaxEntries must be ≥ 2, got %d", rt.cfg.MaxEntries)
	}
	if minEntries < 0 || minEntries > rt.cfg.MaxEntries/2+1 {
		return nil, fmt.Errorf("rtree: MinEntries %d invalid for MaxEntries %d", minEntries, rt.cfg.MaxEntries)
	}
	if rt.cfg.MaxEntries > 1<<20 {
		return nil, fmt.Errorf("rtree: implausible node capacity %d", rt.cfg.MaxEntries)
	}
	if rt.dims < 1 {
		return nil, fmt.Errorf("rtree: dims %d < 1", rt.dims)
	}
	if rt.n < 0 {
		return nil, fmt.Errorf("rtree: negative row count %d", rt.n)
	}
	if rt.height < 1 || rt.height > 64 {
		return nil, fmt.Errorf("rtree: implausible height %d", rt.height)
	}
	rows := 0
	root, err := decodeNode(r, rt, rt.height, &rows)
	if err != nil {
		return nil, err
	}
	if rows != rt.n {
		return nil, fmt.Errorf("rtree: leaves hold %d rows, header says %d", rows, rt.n)
	}
	rt.root = root
	return rt, nil
}

// decodeNode reads one node at the given remaining depth (1 = must be a
// leaf, matching the uniform leaf depth of an R-tree).
func decodeNode(r *binio.Reader, rt *RTree, depth int, rows *int) (*node, error) {
	leaf := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if leaf != (depth == 1) {
		return nil, fmt.Errorf("rtree: leaf flag %v at depth-from-bottom %d", leaf, depth)
	}
	nd := &node{leaf: leaf}
	if leaf {
		payload := r.Float64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(payload)%rt.dims != 0 {
			return nil, fmt.Errorf("rtree: leaf payload %d not divisible by dims %d", len(payload), rt.dims)
		}
		n := len(payload) / rt.dims
		if n > rt.cfg.MaxEntries {
			return nil, fmt.Errorf("rtree: leaf holds %d entries, capacity %d", n, rt.cfg.MaxEntries)
		}
		nd.entries = make([]entry, n)
		for i := 0; i < n; i++ {
			row := payload[i*rt.dims : (i+1)*rt.dims : (i+1)*rt.dims]
			nd.entries[i] = entry{min: row, max: row}
		}
		*rows += n
		return nd, nil
	}
	nChildren := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nChildren < 1 || nChildren > uint64(rt.cfg.MaxEntries) {
		return nil, fmt.Errorf("rtree: internal node has %d children, capacity %d", nChildren, rt.cfg.MaxEntries)
	}
	// Every child costs at least 9 bytes (leaf flag + a length prefix), so
	// a declared count beyond that is corrupt — checked before allocating.
	if nChildren > uint64(r.Remaining()/9) {
		return nil, fmt.Errorf("rtree: %d children exceed remaining payload", nChildren)
	}
	nd.entries = make([]entry, nChildren)
	for i := range nd.entries {
		child, err := decodeNode(r, rt, depth-1, rows)
		if err != nil {
			return nil, err
		}
		min, max := mbrOf(child, rt.dims)
		nd.entries[i] = entry{min: min, max: max, child: child}
	}
	return nd, nil
}
