package workload

import (
	"fmt"
	"math/rand"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/stats"
)

// Mixed read/write workloads. MixGenerator produces a random interleaving
// of Insert/Delete/Update/Query operations over a base table while
// maintaining the live multiset those operations imply — so the same
// generator both drives an index and serves as its correctness oracle (the
// property tests scan LiveView through internal/scan) and powers the
// write stream of the hot-mixed benchmark workload (bench/coaxperf).

// OpKind is one mixed-workload operation type.
type OpKind int

const (
	OpQuery OpKind = iota
	OpInsert
	OpDelete
	OpUpdate
)

func (k OpKind) String() string {
	switch k {
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// MixOp is one generated operation. Row is set for inserts and deletes,
// Old/New for updates, Rect for queries; all slices are owned by the
// caller (never aliased by the generator's pool).
type MixOp struct {
	Kind     OpKind
	Row      []float64
	Old, New []float64
	Rect     index.Rect
}

// MixConfig sets the operation mix. Weights are relative (they need not
// sum to 1); a weight of 0 disables that operation.
type MixConfig struct {
	InsertWeight float64
	DeleteWeight float64
	UpdateWeight float64
	QueryWeight  float64
	// OutlierFrac is the fraction of inserted (and update-replacement)
	// rows that receive a large single-column perturbation — typically
	// violating a learned soft FD and landing in the outlier partition,
	// which is how a workload induces model drift. The rest are exact
	// duplicates of random live rows, so their inlier/outlier
	// classification matches the data distribution.
	OutlierFrac float64
	// PerturbCols restricts which column the perturbation lands on; empty
	// means any column. Callers that know the detected dependencies pass
	// the dependent columns here so every perturbed row is a certain model
	// violator.
	PerturbCols []int
}

// DefaultMixConfig returns an even read/write split with a modest
// drift-inducing outlier fraction.
func DefaultMixConfig() MixConfig {
	return MixConfig{
		InsertWeight: 1,
		DeleteWeight: 1,
		UpdateWeight: 1,
		QueryWeight:  3,
		OutlierFrac:  0.1,
	}
}

// MixGenerator produces a deterministic stream of mixed operations over an
// evolving live multiset seeded from a base table. Not safe for concurrent
// use: one goroutine owns the stream (concurrency is exercised by what the
// caller does with the ops, not by the generator).
type MixGenerator struct {
	cfg    MixConfig
	rng    *rand.Rand
	dims   int
	cols   []string
	live   []float64 // flattened row-major live multiset
	lo, hi []float64 // per-column bounds of the base table (perturbation scale)
	totalW float64
}

// NewMixGenerator seeds a generator with the rows of t (copied).
func NewMixGenerator(t *dataset.Table, seed int64, cfg MixConfig) *MixGenerator {
	g := &MixGenerator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		dims: t.Dims(),
		cols: append([]string(nil), t.Cols...),
		live: append([]float64(nil), t.Data...),
		lo:   make([]float64, t.Dims()),
		hi:   make([]float64, t.Dims()),
	}
	for c := 0; c < t.Dims(); c++ {
		g.lo[c], g.hi[c] = stats.MinMax(t.Column(c))
	}
	g.totalW = cfg.InsertWeight + cfg.DeleteWeight + cfg.UpdateWeight + cfg.QueryWeight
	return g
}

// LiveLen reports the current live row count.
func (g *MixGenerator) LiveLen() int { return len(g.live) / g.dims }

// LiveView returns a table aliasing the live multiset — the oracle input
// for property tests. The view is valid only until the next Next call.
func (g *MixGenerator) LiveView() *dataset.Table {
	return dataset.View(g.cols, g.live)
}

// Next produces the next operation and applies its effect to the live
// multiset. Deletes and updates fall back to inserts when the multiset is
// empty.
func (g *MixGenerator) Next() MixOp {
	w := g.rng.Float64() * g.totalW
	switch {
	case w < g.cfg.QueryWeight:
		return g.nextQuery()
	case w < g.cfg.QueryWeight+g.cfg.InsertWeight:
		return g.nextInsert()
	case w < g.cfg.QueryWeight+g.cfg.InsertWeight+g.cfg.DeleteWeight:
		return g.nextDelete()
	default:
		return g.nextUpdate()
	}
}

func (g *MixGenerator) nextQuery() MixOp {
	n := g.LiveLen()
	r := index.Full(g.dims)
	if n > 0 {
		// Same shape as RandRect: each dimension independently left
		// unconstrained or bounded by the ordered values of two random
		// live rows.
		for d := 0; d < g.dims; d++ {
			if g.rng.Float64() < 0.35 {
				continue
			}
			a := g.live[g.rng.Intn(n)*g.dims+d]
			b := g.live[g.rng.Intn(n)*g.dims+d]
			if a > b {
				a, b = b, a
			}
			r.Min[d], r.Max[d] = a, b
		}
	}
	return MixOp{Kind: OpQuery, Rect: r}
}

func (g *MixGenerator) nextInsert() MixOp {
	row := g.newRow()
	g.live = append(g.live, row...)
	return MixOp{Kind: OpInsert, Row: row}
}

func (g *MixGenerator) nextDelete() MixOp {
	n := g.LiveLen()
	if n == 0 {
		return g.nextInsert()
	}
	return g.deleteAt(g.rng.Intn(n))
}

func (g *MixGenerator) nextUpdate() MixOp {
	n := g.LiveLen()
	if n == 0 {
		return g.nextInsert()
	}
	return g.updateAt(g.rng.Intn(n))
}

// NextWriteIn produces a write aimed at r, its kind drawn by the write
// weights: an insert duplicating a live row inside r, a delete of one, or an
// update replacing one with a row drawn as Next draws it (which may land
// anywhere). With no live row inside r it is Next's write of that kind.
func (g *MixGenerator) NextWriteIn(r index.Rect) MixOp {
	ins, del := g.cfg.InsertWeight, g.cfg.DeleteWeight
	w := g.rng.Float64() * (ins + del + g.cfg.UpdateWeight)
	var inside []int
	for i := 0; i < g.LiveLen(); i++ {
		if r.Contains(g.row(i)) {
			inside = append(inside, i)
		}
	}
	if len(inside) == 0 {
		switch {
		case w < ins:
			return g.nextInsert()
		case w < ins+del:
			return g.nextDelete()
		default:
			return g.nextUpdate()
		}
	}
	i := inside[g.rng.Intn(len(inside))]
	switch {
	case w < ins:
		row := append([]float64(nil), g.row(i)...)
		g.live = append(g.live, row...)
		return MixOp{Kind: OpInsert, Row: row}
	case w < ins+del:
		return g.deleteAt(i)
	default:
		return g.updateAt(i)
	}
}

// row aliases live row i.
func (g *MixGenerator) row(i int) []float64 { return g.live[i*g.dims : (i+1)*g.dims] }

// deleteAt removes live row i.
func (g *MixGenerator) deleteAt(i int) MixOp {
	row := append([]float64(nil), g.row(i)...)
	g.removeAt(i, g.LiveLen())
	return MixOp{Kind: OpDelete, Row: row}
}

// updateAt replaces live row i with a fresh row.
func (g *MixGenerator) updateAt(i int) MixOp {
	old := append([]float64(nil), g.row(i)...)
	repl := g.newRow()
	copy(g.row(i), repl)
	return MixOp{Kind: OpUpdate, Old: old, New: repl}
}

// removeAt swap-removes live row i (multiset semantics: order is free).
func (g *MixGenerator) removeAt(i, n int) {
	last := (n - 1) * g.dims
	copy(g.live[i*g.dims:(i+1)*g.dims], g.live[last:last+g.dims])
	g.live = g.live[:last]
}

// newRow duplicates a random live row (classification-neutral) and, with
// probability OutlierFrac, perturbs one column by one to three column
// ranges — far enough outside any learned margin to land in the outlier
// partition. With an empty multiset it synthesises a row at the base
// table's column midpoints.
func (g *MixGenerator) newRow() []float64 {
	row := make([]float64, g.dims)
	if n := g.LiveLen(); n > 0 {
		copy(row, g.live[g.rng.Intn(n)*g.dims:])
	} else {
		for d := range row {
			row[d] = (g.lo[d] + g.hi[d]) / 2
		}
	}
	if g.rng.Float64() < g.cfg.OutlierFrac {
		d := g.perturbCol()
		span := g.hi[d] - g.lo[d]
		if span <= 0 {
			span = 1
		}
		off := (1 + 2*g.rng.Float64()) * span
		if g.rng.Intn(2) == 0 {
			off = -off
		}
		row[d] += off
	}
	return row
}

func (g *MixGenerator) perturbCol() int {
	if len(g.cfg.PerturbCols) > 0 {
		return g.cfg.PerturbCols[g.rng.Intn(len(g.cfg.PerturbCols))]
	}
	return g.rng.Intn(g.dims)
}
