// Package rtree implements the R-Tree baseline of §8.1.3: an in-memory,
// read-only R-tree over point data with Sort-Tile-Recursive (STR) bulk
// loading and a tunable node capacity (the paper evaluates capacities from
// 2 to 32 and finds 8–12 best). It serves the paper's baselines and the
// decoding of old snapshots whose outliers were R-trees; COAX's own outlier
// index is a grid file.
package rtree

import (
	"fmt"
	"math"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// Config controls tree shape.
type Config struct {
	// MaxEntries is the node capacity M (leaf and internal). Must be ≥ 2.
	MaxEntries int
}

// DefaultConfig matches the paper's best-performing node size.
func DefaultConfig() Config { return Config{MaxEntries: 10} }

// entry is one slot in a node. For leaf entries min and max alias the same
// row slice (points have zero-extent boxes) and child is nil; for internal
// entries min/max are owned bounding-box arrays.
type entry struct {
	min, max []float64
	child    *node
}

type node struct {
	leaf    bool
	entries []entry
}

// RTree is the built index.
type RTree struct {
	cfg    Config
	dims   int
	n      int
	height int
	root   *node
}

var _ index.Interface = (*RTree)(nil)

// Bulk builds an R-tree over every row of t using STR packing; this is how
// the benchmarks construct the baseline.
func Bulk(t *dataset.Table, cfg Config) (*RTree, error) {
	if cfg.MaxEntries < 2 {
		return nil, fmt.Errorf("rtree: MaxEntries must be ≥ 2, got %d", cfg.MaxEntries)
	}
	if t.Dims() < 1 {
		return nil, fmt.Errorf("rtree: dims must be ≥ 1, got %d", t.Dims())
	}
	rt := &RTree{cfg: cfg, dims: t.Dims(), height: 1, root: &node{leaf: true}}
	n := t.Len()
	if n == 0 {
		return rt, nil
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	leafEntries := make([]entry, n)
	for i := 0; i < n; i++ {
		row := t.Row(i)
		leafEntries[i] = entry{min: row, max: row}
	}
	rt.root, rt.height = strBuild(leafEntries, rt.dims, cfg.MaxEntries)
	rt.n = n
	return rt, nil
}

// Name implements index.Interface.
func (rt *RTree) Name() string { return "RTree" }

// Len implements index.Interface.
func (rt *RTree) Len() int { return rt.n }

// Dims implements index.Interface.
func (rt *RTree) Dims() int { return rt.dims }

// Height reports the number of levels (1 = a single leaf).
func (rt *RTree) Height() int { return rt.height }

// NumNodes counts every node in the tree.
func (rt *RTree) NumNodes() int { return countNodes(rt.root) }

func countNodes(nd *node) int {
	c := 1
	if !nd.leaf {
		for _, e := range nd.entries {
			c += countNodes(e.child)
		}
	}
	return c
}

// MemoryOverhead implements index.Interface. The accounting model charges
// every node a fixed header, every entry its slot, and every *internal*
// entry its owned bounding-box arrays; leaf entry boxes alias row data and
// are therefore payload, not directory.
func (rt *RTree) MemoryOverhead() int64 {
	const nodeHeader = 48 // leaf flag + slice header + padding
	const entrySlot = 56  // two slice headers + child pointer
	var walk func(nd *node) int64
	walk = func(nd *node) int64 {
		b := int64(nodeHeader + entrySlot*len(nd.entries))
		if !nd.leaf {
			for _, e := range nd.entries {
				b += int64(16 * rt.dims) // owned min+max float64 arrays
				b += walk(e.child)
			}
		}
		return b
	}
	return walk(rt.root)
}

// Scan implements index.Interface: the descent tests each leaf's entries in
// place, and unwinds — pruning every unvisited subtree — as soon as yield
// returns false.
func (rt *RTree) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	if r.Empty() || rt.n == 0 {
		return true
	}
	return rt.search(rt.root, r, probe, func(nd *node) bool {
		for i := range nd.entries {
			if r.Contains(nd.entries[i].min) {
				if probe != nil {
					probe.Matched++
				}
				if !yield(nd.entries[i].min) {
					return false
				}
			}
		}
		return true
	})
}

// search is the one descent behind Scan and ScanBatch: it visits every node
// whose box overlaps r, counts pages and leaf entries into probe, and hands
// each leaf to leaf — which tests the entries in place (Scan) or gathers
// them into a batch (ScanBatch) and reports whether to go on.
func (rt *RTree) search(nd *node, r index.Rect, probe *index.Probe, leaf func(*node) bool) bool {
	if probe.Aborted() {
		return false // cancelled: stop even if no node ever matches
	}
	if probe != nil {
		probe.Pages++
	}
	if nd.leaf {
		if probe != nil {
			probe.Scanned += int64(len(nd.entries))
		}
		return leaf(nd)
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		if overlaps(r, e.min, e.max) {
			if !rt.search(e.child, r, probe, leaf) {
				return false
			}
		}
	}
	return true
}

func overlaps(r index.Rect, min, max []float64) bool {
	for i := range r.Min {
		if r.Min[i] > max[i] || min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// mbrOf computes the bounding box of a node's entries into fresh arrays.
func mbrOf(nd *node, dims int) (min, max []float64) {
	min = make([]float64, dims)
	max = make([]float64, dims)
	for d := 0; d < dims; d++ {
		min[d] = math.Inf(1)
		max[d] = math.Inf(-1)
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		for d := 0; d < dims; d++ {
			if e.min[d] < min[d] {
				min[d] = e.min[d]
			}
			if e.max[d] > max[d] {
				max[d] = e.max[d]
			}
		}
	}
	return min, max
}
