package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/workload"
)

func gatherSorted(idx index.Interface, r index.Rect) [][]float64 {
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

func identical(a, b [][]float64) bool {
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

// TestShardStreamBuilderMatchesBuild streams the table chunk-wise through
// the direct-to-sharded builder and checks the result answers queries
// identically to the materialized sharded build, cut on the auto-chosen
// column and on lat.
func TestShardStreamBuilderMatchesBuild(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(24000))
	opt := core.DefaultOptions()
	fd, err := softfd.Detect(tab, opt.SoftFD)
	if err != nil {
		t.Fatal(err)
	}

	for _, col := range []int{-1, 2} {
		so := Options{NumShards: 4, Workers: 2, Column: col}
		legacy, err := BuildWithFD(tab, fd, opt, so)
		if err != nil {
			t.Fatal(err)
		}

		sb, err := NewStreamBuilder(tab.Cols, fd, tab, opt, so, tab.Len())
		if err != nil {
			t.Fatal(err)
		}
		src := dataset.NewTableSource(tab, 1024)
		for {
			c, err := src.Next()
			if err != nil {
				break
			}
			if err := sb.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		streamed, err := sb.Finish()
		if err != nil {
			t.Fatal(err)
		}

		if streamed.Len() != legacy.Len() || streamed.NumShards() != legacy.NumShards() {
			t.Fatalf("column %d: shape mismatch: %d rows/%d shards vs %d/%d",
				col, streamed.Len(), streamed.NumShards(), legacy.Len(), legacy.NumShards())
		}
		// Cuts come from the same full-table sample, so routing must agree
		// and per-shard populations match exactly.
		ls, ss := legacy.BuildStats(), streamed.BuildStats()
		for i := range ls.RowsPerShard {
			if ls.RowsPerShard[i] != ss.RowsPerShard[i] {
				t.Fatalf("column %d: shard %d: %d streamed vs %d legacy rows",
					col, i, ss.RowsPerShard[i], ls.RowsPerShard[i])
			}
		}
		rng := rand.New(rand.NewSource(21))
		for q := 0; q < 50; q++ {
			r := workload.RandRect(rng, tab)
			if !identical(gatherSorted(legacy, r), gatherSorted(streamed, r)) {
				t.Fatalf("column %d: query %d differs", col, q)
			}
		}
	}
}

// TestShardStreamBuilderSampled uses a small reservoir-style sample for
// cuts, boundaries, and detection; results must remain exact.
func TestShardStreamBuilderSampled(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))
	opt := core.DefaultOptions()

	rng := rand.New(rand.NewSource(33))
	sample := dataset.NewTable(tab.Cols)
	for i := 0; i < tab.Len(); i++ {
		if rng.Float64() < 0.08 {
			sample.Append(tab.Row(i))
		}
	}
	fd, err := softfd.DetectSample(sample, opt.SoftFD)
	if err != nil {
		t.Fatal(err)
	}

	so := Options{NumShards: 3, Column: -1}
	sb, err := NewStreamBuilder(tab.Cols, fd, sample, opt, so, -1)
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.NewTableSource(tab, 700)
	for {
		c, err := src.Next()
		if err != nil {
			break
		}
		if err := sb.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != tab.Len() {
		t.Fatalf("streamed %d rows, want %d", streamed.Len(), tab.Len())
	}

	// Oracle: brute-force scan of the table.
	qrng := rand.New(rand.NewSource(55))
	for q := 0; q < 40; q++ {
		r := workload.RandRect(qrng, tab)
		want := 0
		for i := 0; i < tab.Len(); i++ {
			if r.Contains(tab.Row(i)) {
				want++
			}
		}
		got := 0
		streamed.Exec(r, index.Spec{}, func([]float64) bool { got++; return true }, nil)
		if got != want {
			t.Fatalf("query %d: %d rows, oracle says %d", q, got, want)
		}
	}
}

func TestShardStreamBuilderEmptyStream(t *testing.T) {
	tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(500))
	opt := core.DefaultOptions()
	fd, err := softfd.Detect(tab, opt.SoftFD)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStreamBuilder(tab.Cols, fd, tab, opt, Options{NumShards: 2, Column: -1}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Finish(); err == nil {
		t.Fatal("empty stream must not build")
	}
}

// TestOutlierDirectoryWithinData holds both build paths to the paper's
// §8.2.1 rule on every shard: the outlier directory never outweighs the
// outlier rows it indexes. The streaming path sizes the outlier grid from
// an outlier count estimated on the sample (it once sized it from a
// capacity hint padded by 4 096 rows and broke the rule on small shards).
func TestOutlierDirectoryWithinData(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(200_000))
	opt := core.DefaultOptions()
	rng := rand.New(rand.NewSource(8))
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
	so := Options{NumShards: 4, Column: -1}
	inMemory, err := BuildWithFD(tab, fd, opt, so)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStreamBuilder(tab.Cols, fd, sample, opt, so, tab.Len())
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.NewTableSource(tab, 1024)
	for {
		c, err := src.Next()
		if err != nil {
			break
		}
		if err := sb.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := sb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]*Sharded{"in-memory": inMemory, "streamed": streamed} {
		cells := 0
		for i := range idx.NumShards() {
			idx.WithShard(i, func(c *core.COAX) error {
				st := c.BuildStats()
				cells += st.OutlierCells
				if data := int64(st.OutlierRows) * int64(tab.Dims()) * 8; st.OutlierOverheadB > data {
					t.Errorf("%s shard %d: outlier directory %d B for %d B of outliers (%d cells)",
						name, i, st.OutlierOverheadB, data, st.OutlierCells)
				}
				return nil
			})
		}
		if got := idx.BuildStats().OutlierCells; got != cells {
			t.Errorf("%s: Stats.OutlierCells %d, shards hold %d", name, got, cells)
		}
	}
}

// rangeCuts selects each quantile instead of sorting the column: the cut
// points must be exactly the values a full sort puts at ranks i·n/k, on
// columns with many duplicates, presorted and reversed columns included,
// and a presorted million-row column like OSM's id.
func TestRangeCutsMatchSort(t *testing.T) {
	ids := dataset.NewTable([]string{"id"})
	for i := 0; i < 1<<20; i++ {
		ids.Append([]float64{float64(i)})
	}
	if got := rangeCuts(ids, 0, 4); got[0] != 1<<18 || got[1] != 1<<19 || got[2] != 3<<18 {
		t.Fatalf("presorted ids cut at %v", got)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n, k := 1+rng.Intn(2000), 1+rng.Intn(20)
		tab := dataset.NewTable([]string{"v"})
		distinct := 1 + rng.Intn(n)
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(distinct)) - float64(distinct)/2
			switch trial % 3 {
			case 1:
				v = float64(i)
			case 2:
				v = float64(n - i)
			}
			tab.Append([]float64{v})
		}
		sorted := tab.Column(0)
		sort.Float64s(sorted)
		got := rangeCuts(tab, 0, k)
		if len(got) != max(k-1, 0) {
			t.Fatalf("trial %d: %d cuts for k=%d", trial, len(got), k)
		}
		for i := range got {
			if want := sorted[(i+1)*n/k]; math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d k=%d): cut %d is %v, sorting gives %v", trial, n, k, i, got[i], want)
			}
		}
	}
}
