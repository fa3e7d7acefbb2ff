// Package cluster distributes the sharded COAX engine across processes: a
// consistent-hash ring places global shards onto nodes with R-way
// replication, a Node hosts its assigned shards behind the internal/wire
// protocol, and a Router scatter-gathers queries across nodes with the
// same atomic stop-flag semantics as the in-process fan-out in
// internal/shard — plus hedged replica reads and per-node circuit breaking
// that the single-process engine never needed.
//
// The unit of placement is the global shard: the K global shards are the K
// range slots of one shard build (BuildShards), so global shard g holds the
// rows whose range-column value lies between cut points g-1 and g, and a
// cluster partitions rows exactly as a K-shard serve-mode engine does. Nodes
// send the column and cuts in the handshake; the router prunes each
// rectangle to the shards its range can reach and routes each mutation by
// its row's value. K is fixed at cluster build time; nodes joining or
// leaving move whole global shards, never individual rows.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the number of ring points per node. More points smooth
// the balance between nodes at the cost of a larger (still tiny) ring.
const DefaultVnodes = 160

// Ring is a consistent-hash ring of nodes. It is immutable after
// construction — membership changes build a new Ring — which is what makes
// the placement property testable: two rings sharing nodes place shards
// identically wherever their point sets agree.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring of the given nodes with vnodes points each
// (DefaultVnodes when vnodes <= 0). Node names must be unique and
// non-empty; order does not affect placement.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for i, n := range r.nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// ringHash is FNV-1a 64 over s, finished with a splitmix64-style mixer.
// Raw FNV of near-identical strings ("node#1", "node#2", ...) clusters —
// consecutive vnodes land in one tight arc and the ring degenerates to a
// single owner — so the finalizer's full avalanche is load-bearing, not
// cosmetic. Placement never sees adversarial input; it only needs the mix.
func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Nodes returns the ring's membership (a copy, in construction order).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Replicas returns the rf distinct nodes hosting a global shard, in
// preference order: the shard's hash point is located on the ring and the
// walk clockwise collects the first rf distinct nodes. rf larger than the
// node count returns every node. The first entry is the shard's primary.
func (r *Ring) Replicas(gshard, rf int) []string {
	if rf > len(r.nodes) {
		rf = len(r.nodes)
	}
	if rf <= 0 {
		rf = 1
	}
	h := ringHash(fmt.Sprintf("shard:%d", gshard))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, rf)
	taken := make(map[int]bool, rf)
	for i := 0; i < len(r.points) && len(out) < rf; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// Placement returns, for each of the K global shards, its replica set on
// this ring (Replicas(g, rf) for g in 0..K-1).
func (r *Ring) Placement(shards, rf int) [][]string {
	out := make([][]string, shards)
	for g := range out {
		out[g] = r.Replicas(g, rf)
	}
	return out
}

// HostedShards returns the global shards whose replica set includes node,
// ascending — the set a node must materialize locally.
func (r *Ring) HostedShards(node string, shards, rf int) []int {
	var out []int
	for g := 0; g < shards; g++ {
		for _, n := range r.Replicas(g, rf) {
			if n == node {
				out = append(out, g)
				break
			}
		}
	}
	return out
}
