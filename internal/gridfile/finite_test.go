package gridfile

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
)

// TestBuildRefusesNonFinite: ReadCSV parses NaN and ±Inf, but an index must
// not hold them — a NaN in the sort column breaks the order a page's span
// search relies on, and rows go missing — so Build refuses the table with
// an error naming the first such value's row and column, and Insert refuses
// such a row.
func TestBuildRefusesNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var csv strings.Builder
	csv.WriteString("a,b,c\n")
	first := -1
	for i := 0; i < 5000; i++ {
		c := fmt.Sprint(rng.Float64())
		if rng.Intn(10) == 0 {
			c = "NaN"
			if first < 0 {
				first = i
			}
		}
		fmt.Fprintf(&csv, "%v,%v,%s\n", rng.Float64(), rng.Float64(), c)
	}
	tab, err := dataset.ReadCSV(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 8}
	_, err = Build(tab, cfg)
	if want := fmt.Sprintf("row %d, column 2 (c) holds NaN", first); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Build over %d NaN sort values: %v, want an error naming %q", tab.Len()/10, err, want)
	}

	finite := randomTable(rng, 500, 3)
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		bad := finite.Slice(0, finite.Len())
		bad.Row(321)[0] = v
		if _, err := Build(bad, cfg); err == nil || !strings.Contains(err.Error(), "row 321, column 0 (a)") {
			t.Errorf("Build over %v in a grid column: %v", v, err)
		}
	}
	g, err := Build(finite, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := g.Insert([]float64{0, 0, v}); err == nil {
			t.Errorf("Insert accepted %v", v)
		}
	}
	if g.Len() != finite.Len() {
		t.Fatalf("refused inserts changed the grid: %d rows, want %d", g.Len(), finite.Len())
	}
}
