package gridfile

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/workload"
)

func TestDeleteMainPageTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randomTable(rng, 500, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	victim := append([]float64(nil), tab.Row(123)...)
	before := index.Count(g, index.Point(victim))
	if before < 1 {
		t.Fatal("victim row not present")
	}
	if !g.Delete(victim) {
		t.Fatal("Delete returned false for a present row")
	}
	if g.Len() != 499 || g.Tombstones() != 1 || g.StoredRows() != 500 {
		t.Fatalf("Len=%d Tombstones=%d Stored=%d", g.Len(), g.Tombstones(), g.StoredRows())
	}
	if got := index.Count(g, index.Point(victim)); got != before-1 {
		t.Fatalf("point query after delete: %d, want %d", got, before-1)
	}
	if index.Count(g, index.Full(2)) != 499 {
		t.Fatal("full query still sees the tombstoned row")
	}
	// Deleting a row that never existed fails.
	if g.Delete([]float64{1e18, -1e18}) {
		t.Fatal("Delete invented a row")
	}
}

func TestDeleteDuplicatesOneAtATime(t *testing.T) {
	tab := dataset.NewTable([]string{"a", "b"})
	row := []float64{1, 2}
	for i := 0; i < 3; i++ {
		tab.Append(row)
	}
	tab.Append([]float64{5, 5})
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for want := 2; want >= 0; want-- {
		if !g.Delete(row) {
			t.Fatalf("delete with %d copies left failed", want+1)
		}
		if got := index.Count(g, index.Point(row)); got != want {
			t.Fatalf("after delete: %d copies, want %d", got, want)
		}
	}
	if g.Delete(row) {
		t.Fatal("deleted a fourth copy of a thrice-inserted row")
	}
}

func TestDeleteFromOverflowPage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := randomTable(rng, 200, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{0.25, 0.75}
	if err := g.Insert(row); err != nil {
		t.Fatal(err)
	}
	if g.Inserted() != 1 {
		t.Fatal("insert did not land in overflow")
	}
	if !g.Delete(row) {
		t.Fatal("Delete missed the overflow row")
	}
	// Overflow deletes are physical: no tombstone, count restored.
	if g.Tombstones() != 0 || g.Inserted() != 0 || g.Len() != 200 {
		t.Fatalf("Tombstones=%d Inserted=%d Len=%d", g.Tombstones(), g.Inserted(), g.Len())
	}
}

func TestCompactDropsTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := randomTable(rng, 1000, 3)
	g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the expected live set while mutating the grid.
	mirror := dataset.NewTable(tab.Cols)
	deleted := map[int]bool{}
	for i := 0; i < 300; i++ {
		deleted[rng.Intn(tab.Len())] = true
	}
	for i := 0; i < tab.Len(); i++ {
		if deleted[i] {
			if !g.Delete(tab.Row(i)) {
				t.Fatalf("delete row %d failed", i)
			}
		} else {
			mirror.Append(tab.Row(i))
		}
	}
	extra := randomTable(rng, 100, 3)
	for i := 0; i < extra.Len(); i++ {
		if err := g.Insert(extra.Row(i)); err != nil {
			t.Fatal(err)
		}
		mirror.Append(extra.Row(i))
	}

	check := func(stage string) {
		t.Helper()
		oracle := scan.New(mirror)
		for q := 0; q < 50; q++ {
			r := workload.RandRect(rng, mirror)
			if got, want := index.Count(g, r), index.Count(oracle, r); got != want {
				t.Fatalf("%s: rect %d: got %d rows, oracle %d", stage, q, got, want)
			}
		}
		if g.Len() != mirror.Len() {
			t.Fatalf("%s: Len=%d, mirror=%d", stage, g.Len(), mirror.Len())
		}
	}
	check("before compact")
	g.Compact()
	if g.Tombstones() != 0 || g.Inserted() != 0 || g.StoredRows() != mirror.Len() {
		t.Fatalf("after compact: Tombstones=%d Inserted=%d Stored=%d want stored %d",
			g.Tombstones(), g.Inserted(), g.StoredRows(), mirror.Len())
	}
	check("after compact")
}

func TestDeadSlotsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tab := randomTable(rng, 400, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		g.Delete(tab.Row(rng.Intn(tab.Len())))
	}
	// The slots a format v2 snapshot lists are the set bits of the bitmap.
	var slots []int64
	for s := range g.mainRows() {
		if g.isDead(s) {
			slots = append(slots, int64(s))
		}
	}
	if len(slots) != g.Tombstones() {
		t.Fatalf("%d slots, %d tombstones", len(slots), g.Tombstones())
	}

	// Rebuild an identical grid and install the slots: queries must agree.
	g2, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.SetDeadSlots(slots); err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() || g2.Tombstones() != g.Tombstones() {
		t.Fatalf("restored Len=%d Tombstones=%d, want %d/%d", g2.Len(), g2.Tombstones(), g.Len(), g.Tombstones())
	}
	for q := 0; q < 30; q++ {
		r := workload.RandRect(rng, tab)
		if index.Count(g, r) != index.Count(g2, r) {
			t.Fatal("restored tombstones answer differently")
		}
	}

	// Bad slot lists are rejected.
	if err := g2.SetDeadSlots([]int64{-1}); err == nil {
		t.Fatal("negative slot accepted")
	}
	if err := g2.SetDeadSlots([]int64{int64(tab.Len())}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := g2.SetDeadSlots([]int64{3, 3}); err == nil {
		t.Fatal("duplicate slot accepted")
	}
}
