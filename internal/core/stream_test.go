package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/workload"
)

func sortedRows(idx index.Interface, r index.Rect) [][]float64 {
	var out [][]float64
	idx.Scan(r, func(row []float64) bool {
		out = append(out, append([]float64(nil), row...))
		return true
	}, nil)
	sort.Slice(out, func(i, j int) bool {
		for d := range out[i] {
			if out[i][d] != out[j][d] {
				return out[i][d] < out[j][d]
			}
		}
		return false
	})
	return out
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				return false
			}
		}
	}
	return true
}

// TestStreamBuilderFullSampleMatchesBuild drives the streaming build with
// the whole table as its sample: classification, boundaries, and outlier
// structure must then agree exactly with the in-memory build, so the two
// indexes answer every query identically and report the same partition
// split.
func TestStreamBuilderFullSampleMatchesBuild(t *testing.T) {
	for _, kind := range []OutlierIndexKind{OutlierGrid, OutlierRTree} {
		tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(20000))
		opt := DefaultOptions()
		opt.OutlierKind = kind

		legacy, err := Build(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		fd := legacy.FD()

		sb, err := NewStreamBuilder(tab.Cols, fd, tab, opt, tab.Len())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tab.Len(); i++ {
			sb.Add(tab.Row(i))
		}
		streamed, err := sb.Finish()
		if err != nil {
			t.Fatal(err)
		}

		ls, ss := legacy.BuildStats(), streamed.BuildStats()
		if ls.PrimaryRows != ss.PrimaryRows || ls.OutlierRows != ss.OutlierRows {
			t.Fatalf("kind %d: split %d/%d streamed vs %d/%d legacy",
				kind, ss.PrimaryRows, ss.OutlierRows, ls.PrimaryRows, ls.OutlierRows)
		}
		if ls.SortDim != ss.SortDim || ls.GridDims != ss.GridDims {
			t.Fatalf("kind %d: layout mismatch", kind)
		}
		rng := rand.New(rand.NewSource(5))
		for q := 0; q < 60; q++ {
			r := workload.RandRect(rng, tab)
			if !sameRows(sortedRows(legacy, r), sortedRows(streamed, r)) {
				t.Fatalf("kind %d: query %d differs", kind, q)
			}
		}
	}
}

// TestStreamBuilderSampledStaysExact samples 5% of the stream for
// detection and boundaries; the models (and so the inlier/outlier split)
// may differ from the full-scan build, but query answers must not — COAX
// is exact regardless of where rows land.
func TestStreamBuilderSampledStaysExact(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(30000))
	opt := DefaultOptions()

	legacy, err := Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}

	// 5% uniform sample.
	rng := rand.New(rand.NewSource(9))
	sample := dataset.NewTable(tab.Cols)
	for i := 0; i < tab.Len(); i++ {
		if rng.Float64() < 0.05 {
			sample.Append(tab.Row(i))
		}
	}
	fd, err := softfd.DetectSample(sample, opt.SoftFD)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStreamBuilder(tab.Cols, fd, sample, opt, tab.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Len(); i++ {
		sb.Add(tab.Row(i))
	}
	streamed, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != tab.Len() {
		t.Fatalf("streamed index holds %d rows, want %d", streamed.Len(), tab.Len())
	}

	qrng := rand.New(rand.NewSource(13))
	for q := 0; q < 80; q++ {
		r := workload.RandRect(qrng, tab)
		if !sameRows(sortedRows(legacy, r), sortedRows(streamed, r)) {
			t.Fatalf("query %d differs between sampled-stream and legacy builds", q)
		}
	}
}

func TestStreamBuilderEmptyFinishYieldsSkeleton(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(200))
	opt := DefaultOptions()
	fd, err := softfd.Detect(tab, opt.SoftFD)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStreamBuilder(tab.Cols, fd, tab, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Fatalf("empty build holds %d rows", idx.Len())
	}
	// The skeleton must accept inserts, mirroring empty shards of a
	// sharded build.
	if err := idx.Insert(tab.Row(0)); err != nil {
		t.Fatalf("Insert into empty skeleton: %v", err)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len after insert = %d", idx.Len())
	}
}

// TestStreamBuilderFullSampleSameOutlierLayout: with the whole table as its
// sample, the streaming build estimates the outlier count exactly and so
// chooses the in-memory build's outlier layout.
func TestStreamBuilderFullSampleSameOutlierLayout(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))
	opt := DefaultOptions()
	legacy, err := Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStreamBuilder(tab.Cols, legacy.FD(), tab, opt, tab.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Len(); i++ {
		sb.Add(tab.Row(i))
	}
	streamed, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ls, ss := legacy.BuildStats(), streamed.BuildStats()
	if ls.OutlierRows < 2*outlierPageRows {
		t.Fatalf("only %d outliers: the layout is not chosen", ls.OutlierRows)
	}
	if ls.OutlierCells != ss.OutlierCells || ls.OutlierSortDim != ss.OutlierSortDim ||
		!slices.Equal(ls.OutlierGridDims, ss.OutlierGridDims) {
		t.Fatalf("outlier layout: streamed %d cells on %v sorted on %d, in-memory %d cells on %v sorted on %d",
			ss.OutlierCells, ss.OutlierGridDims, ss.OutlierSortDim, ls.OutlierCells, ls.OutlierGridDims, ls.OutlierSortDim)
	}
}
