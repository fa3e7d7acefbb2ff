package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
)

func randomTable(rng *rand.Rand, n, dims int) *dataset.Table {
	cols := make([]string, dims)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	t := dataset.NewTable(cols)
	row := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = rng.Float64() * 100
		}
		t.Append(row)
	}
	return t
}

func randRect(rng *rand.Rand, dims int) index.Rect {
	r := index.Full(dims)
	for d := 0; d < dims; d++ {
		a := rng.Float64() * 100
		b := rng.Float64() * 100
		if a > b {
			a, b = b, a
		}
		r.Min[d], r.Max[d] = a, b
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	if _, err := Bulk(dataset.NewTable([]string{"a", "b"}), Config{MaxEntries: 1}); err == nil {
		t.Error("MaxEntries 1 must be rejected")
	}
	if _, err := Bulk(dataset.NewTable(nil), Config{MaxEntries: 4}); err == nil {
		t.Error("zero dims must be rejected")
	}
}

func TestBulkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := randomTable(rng, 5000, 3)
	oracle := scan.New(tab)
	rt, err := Bulk(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 5000 || rt.Dims() != 3 {
		t.Fatalf("Len=%d Dims=%d", rt.Len(), rt.Dims())
	}
	for trial := 0; trial < 50; trial++ {
		r := randRect(rng, 3)
		if got, want := index.Count(rt, r), index.Count(oracle, r); got != want {
			t.Fatalf("trial %d: count %d, want %d", trial, got, want)
		}
	}
	// Point queries on existing rows.
	for trial := 0; trial < 30; trial++ {
		p := index.Point(tab.Row(rng.Intn(tab.Len())))
		if index.Count(rt, p) < 1 {
			t.Fatal("point query lost its own row")
		}
	}
}

func TestBulkHeightReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 10000, 2)
	rt, err := Bulk(tab, Config{MaxEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 10000 rows at fanout 10 needs height 4 (10^4); STR packs tightly.
	if rt.Height() < 3 || rt.Height() > 6 {
		t.Errorf("height = %d, want 4±2", rt.Height())
	}
	if rt.NumNodes() < 1000 {
		t.Errorf("NumNodes = %d; leaves alone should exceed 1000", rt.NumNodes())
	}
}

func TestBulkEmpty(t *testing.T) {
	tab := dataset.NewTable([]string{"x"})
	rt, err := Bulk(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 0 {
		t.Errorf("Len = %d", rt.Len())
	}
	if got := index.Count(rt, index.Full(1)); got != 0 {
		t.Errorf("empty tree returned %d rows", got)
	}
}

func TestMemoryOverheadScalesWithCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(rng, 5000, 2)
	small, err := Bulk(tab, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Bulk(tab, Config{MaxEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Lower fanout means more nodes and more directory bytes.
	if small.MemoryOverhead() <= big.MemoryOverhead() {
		t.Errorf("fanout-4 overhead %d should exceed fanout-32 overhead %d",
			small.MemoryOverhead(), big.MemoryOverhead())
	}
}

func TestName(t *testing.T) {
	rt, err := Bulk(dataset.NewTable([]string{"x"}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != "RTree" {
		t.Errorf("Name = %q", rt.Name())
	}
}

// Property: bulk-loaded trees agree with the oracle for arbitrary data and
// node capacities.
func TestRTreeEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(4)
		n := 20 + rng.Intn(400)
		tab := randomTable(rng, n, dims)
		oracle := scan.New(tab)
		capEntries := 2 + rng.Intn(14)

		bulk, err := Bulk(tab, Config{MaxEntries: capEntries})
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			r := randRect(rng, dims)
			if index.Count(bulk, r) != index.Count(oracle, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
