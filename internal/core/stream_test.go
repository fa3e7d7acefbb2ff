package core

import (
	"math/rand"
	"runtime"
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

// streamShuffled streams tab's rows in a seeded random order into a
// builder whose sample is tab itself.
func streamShuffled(t *testing.T, tab *dataset.Table, fd softfd.Result, opt Options, seed int64) *COAX {
	t.Helper()
	sb, err := NewStreamBuilder(tab.Cols, fd, tab, opt, tab.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(tab.Len()) {
		sb.Add(tab.Row(i))
	}
	c, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamBuilderFullSampleMatchesBuild drives the streaming build with
// the whole table as its sample but the rows arriving in a shuffled order:
// classification, boundaries, and outlier structure come from the sample,
// so they must agree exactly with the in-memory build, and the two indexes
// answer every query identically and report the same partition split.
func TestStreamBuilderFullSampleMatchesBuild(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(20000))
	opt := DefaultOptions()
	legacy, err := Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamShuffled(t, tab, legacy.FD(), opt, 3)

	ls, ss := legacy.BuildStats(), streamed.BuildStats()
	if ls.PrimaryRows != ss.PrimaryRows || ls.OutlierRows != ss.OutlierRows {
		t.Fatalf("split %d/%d streamed vs %d/%d legacy",
			ss.PrimaryRows, ss.OutlierRows, ls.PrimaryRows, ls.OutlierRows)
	}
	if ls.SortDim != ss.SortDim || ls.GridDims != ss.GridDims {
		t.Fatal("layout mismatch")
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 60; q++ {
		r := workload.RandRect(rng, tab)
		if !sameRows(sortedRows(legacy, r), sortedRows(streamed, r)) {
			t.Fatalf("query %d differs", q)
		}
	}
}

// TestStreamBuilderFullSampleSameOutlierLayout: with the whole table as its
// sample, the streaming build estimates the outlier count exactly and so
// chooses the in-memory build's outlier layout, whatever order the rows
// arrive in.
func TestStreamBuilderFullSampleSameOutlierLayout(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))
	opt := DefaultOptions()
	legacy, err := Build(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamShuffled(t, tab, legacy.FD(), opt, 7)
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

// TestBuildWithFDAllocatesOneCopy: the in-memory build copies the table
// once, into the finished index's pages; everything else it allocates
// (classification, boundary sorts, the cell permutation, the outlier
// layout's samples) stays well under three more copies.
func TestBuildWithFDAllocatesOneCopy(t *testing.T) {
	for _, tab := range []*dataset.Table{
		dataset.GenerateOSM(dataset.DefaultOSMConfig(200_000)),
		dataset.GenerateAirline(dataset.DefaultAirlineConfig(200_000)),
	} {
		opt := DefaultOptions()
		fd, err := softfd.Detect(tab, opt.SoftFD)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := BuildWithFD(tab, fd, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(tab.SizeBytes())
		t.Logf("%d×%d table: build allocates %.2f× its bytes", c.Len(), tab.Dims(), ratio)
		if ratio > 4 {
			t.Errorf("%d×%d table: build allocates %.2f× its bytes, want ≤ 4×", c.Len(), tab.Dims(), ratio)
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
