package scan

import (
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

func TestScanBasics(t *testing.T) {
	tab := dataset.NewTable([]string{"a", "b"})
	tab.Append([]float64{1, 10})
	tab.Append([]float64{2, 20})
	tab.Append([]float64{3, 30})
	s := New(tab)
	if s.Name() != "FullScan" || s.Len() != 3 || s.Dims() != 2 || s.MemoryOverhead() != 0 {
		t.Error("identity accessors broken")
	}
	r := index.NewRect([]float64{1.5, 0}, []float64{3, 25})
	if got := index.Count(s, r); got != 1 {
		t.Errorf("Count = %d, want 1 (only row {2,20})", got)
	}
	if got := index.Count(s, index.Full(2)); got != 3 {
		t.Errorf("full rect Count = %d, want 3", got)
	}
}

func TestScanEmptyRect(t *testing.T) {
	tab := dataset.NewTable([]string{"a"})
	tab.Append([]float64{1})
	s := New(tab)
	r := index.NewRect([]float64{2}, []float64{1})
	if index.Count(s, r) != 0 {
		t.Error("empty rect must match nothing")
	}
}

func TestScanVisitsRowsInOrder(t *testing.T) {
	tab := dataset.NewTable([]string{"a"})
	for i := 0; i < 5; i++ {
		tab.Append([]float64{float64(i)})
	}
	s := New(tab)
	var got []float64
	s.Scan(index.Full(1), func(row []float64) bool { got = append(got, row[0]); return true }, nil)
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("scan order broken: %v", got)
		}
	}
}
