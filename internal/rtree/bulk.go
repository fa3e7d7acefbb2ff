package rtree

import (
	"math"
	"sort"
)

// strBuild packs leaf entries into a complete tree using Sort-Tile-Recursive
// and returns the root together with the tree height.
func strBuild(items []entry, dims, m int) (*node, int) {
	groups := strPartition(items, 0, dims, m)
	level := make([]*node, len(groups))
	for i, g := range groups {
		level[i] = &node{leaf: true, entries: g}
	}
	height := 1
	for len(level) > 1 {
		level = packParents(level, dims, m)
		height++
	}
	return level[0], height
}

// strPartition recursively tiles items into groups of at most m entries:
// sort by the centre of dimension dim, cut into vertical slabs sized so the
// final tiles are square-ish, and recurse on the next dimension inside each
// slab.
func strPartition(items []entry, dim, dims, m int) [][]entry {
	n := len(items)
	if n == 0 {
		return nil
	}
	if n <= m {
		return [][]entry{items}
	}
	if dim == dims-1 {
		// Last dimension: plain consecutive chunks of m.
		sortByCenter(items, dim)
		out := make([][]entry, 0, (n+m-1)/m)
		for i := 0; i < n; i += m {
			j := i + m
			if j > n {
				j = n
			}
			out = append(out, items[i:j])
		}
		return out
	}
	pages := int(math.Ceil(float64(n) / float64(m)))
	remaining := dims - dim
	slabs := int(math.Ceil(math.Pow(float64(pages), 1.0/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (n + slabs - 1) / slabs
	sortByCenter(items, dim)
	var out [][]entry
	for i := 0; i < n; i += slabSize {
		j := i + slabSize
		if j > n {
			j = n
		}
		out = append(out, strPartition(items[i:j], dim+1, dims, m)...)
	}
	return out
}

func sortByCenter(items []entry, dim int) {
	sort.Slice(items, func(a, b int) bool {
		ca := items[a].min[dim] + items[a].max[dim]
		cb := items[b].min[dim] + items[b].max[dim]
		return ca < cb
	})
}

// packParents groups one tree level's nodes into parents, reusing the STR
// tiling over the children's bounding-box centres.
func packParents(level []*node, dims, m int) []*node {
	items := make([]entry, len(level))
	for i, nd := range level {
		min, max := mbrOf(nd, dims)
		items[i] = entry{min: min, max: max, child: nd}
	}
	groups := strPartition(items, 0, dims, m)
	parents := make([]*node, len(groups))
	for i, g := range groups {
		parents[i] = &node{leaf: false, entries: g}
	}
	return parents
}
