package mmapsnap

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/workload"
)

func testTable(t testing.TB, rows int) *dataset.Table {
	t.Helper()
	return dataset.GenerateOSM(dataset.DefaultOSMConfig(rows))
}

func buildIndex(t testing.TB, tab *dataset.Table) *core.COAX {
	t.Helper()
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 2000
	idx, err := core.Build(tab, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx
}

func testQueries(tab *dataset.Table) []index.Rect {
	g := workload.NewGenerator(tab, 7)
	qs := g.PointQueries(15)
	qs = append(qs, g.KNNRects(15, 64)...)
	for d := 0; d < tab.Dims(); d++ {
		qs = append(qs, g.PartialRects(3, []int{d}, 0.2)...)
	}
	qs = append(qs, index.Full(tab.Dims()))
	return qs
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// requireSameResults proves two indexes answer a query set bit-identically.
// single returns the engine of a snapshot opened from a single-index blob,
// which opens as one range slot with column -1 and no cuts.
func single(t testing.TB, sn *Snapshot) *core.COAX {
	t.Helper()
	s := sn.Index()
	if s.NumShards() != 1 || s.RangeColumn() != -1 || s.Cuts() != nil {
		t.Fatalf("single-index blob opened as %d shards on column %d cut at %v, want one on column -1",
			s.NumShards(), s.RangeColumn(), s.Cuts())
	}
	var idx *core.COAX
	s.WithShard(0, func(c *core.COAX) error { idx = c; return nil })
	return idx
}

func requireSameResults(t *testing.T, want, got index.Interface, queries []index.Rect) {
	t.Helper()
	for qi, q := range queries {
		wr, gr := index.Collect(want, q), index.Collect(got, q)
		sortRows(wr)
		sortRows(gr)
		if len(wr) != len(gr) {
			t.Fatalf("query %d: %d rows heap, %d mapped", qi, len(wr), len(gr))
		}
		for i := range wr {
			for k := range wr[i] {
				if math.Float64bits(wr[i][k]) != math.Float64bits(gr[i][k]) {
					t.Fatalf("query %d row %d col %d: %v != %v (bit-level)", qi, i, k, wr[i][k], gr[i][k])
				}
			}
		}
	}
}

// TestRoundTripSingle: a single index over either dataset, with linear or
// spline models, answers bit-identically from its v3
// blob, raw and compressed.
func TestRoundTripSingle(t *testing.T) {
	osm := testTable(t, 4000)
	airline := dataset.GenerateAirline(dataset.DefaultAirlineConfig(4000))
	for _, tc := range []struct {
		name   string
		tab    *dataset.Table
		spline bool
	}{
		{"osm/grid", osm, false},
		{"osm/spline", osm, true},
		{"airline/grid", airline, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := core.DefaultOptions()
			opt.SoftFD.SampleCount = 2000
			if tc.spline {
				opt.SoftFD.Kind = softfd.ModelSpline
			}
			idx, err := core.Build(tc.tab, opt)
			if err != nil {
				t.Fatal(err)
			}
			queries := testQueries(tc.tab)
			for _, compress := range []bool{false, true} {
				blob, err := EncodeIndex(idx, Options{Compress: compress})
				if err != nil {
					t.Fatalf("compress=%v: EncodeIndex: %v", compress, err)
				}
				if err := Verify(blob); err != nil {
					t.Fatalf("compress=%v: Verify: %v", compress, err)
				}
				sn, err := OpenBytes(blob)
				if err != nil {
					t.Fatalf("compress=%v: OpenBytes: %v", compress, err)
				}
				got := single(t, sn)
				if got.Len() != idx.Len() {
					t.Fatalf("Len %d != %d", got.Len(), idx.Len())
				}
				requireSameResults(t, idx, got, queries)
				if err := sn.PageErr(); err != nil {
					t.Fatalf("PageErr: %v", err)
				}
			}
		})
	}
}

// TestRoundTripSharded: every partition shape — cut on the predictor or on
// a dependent column, one shard, many, and more shards than the range
// column has room for, which leaves some empty — keeps its routing (column,
// cut points) and answers bit-identically from its v3 blob, raw and
// compressed.
func TestRoundTripSharded(t *testing.T) {
	tab := testTable(t, 6000)
	queries := testQueries(tab)
	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 2000
	for _, tc := range []struct {
		name string
		so   shard.Options
	}{
		{"default", shard.DefaultOptions()},
		{"range4", shard.Options{NumShards: 4, Column: -1}},
		{"dependent3", shard.Options{NumShards: 3, Column: 1}},
		{"single", shard.Options{NumShards: 1, Column: 0}},
		{"manyShards", shard.Options{NumShards: 17, Column: 2}},
		{"emptyShards", shard.Options{NumShards: 64, Column: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, compress := range []bool{false, true} {
				sh, err := shard.Build(tab, opt, tc.so)
				if err != nil {
					t.Fatalf("shard.Build: %v", err)
				}
				blob, err := EncodeSharded(sh, Options{Compress: compress})
				if err != nil {
					t.Fatalf("EncodeSharded: %v", err)
				}
				if err := Verify(blob); err != nil {
					t.Fatalf("Verify: %v", err)
				}
				sn, err := OpenBytes(blob)
				if err != nil {
					t.Fatalf("OpenBytes: %v", err)
				}
				got := sn.Index()
				if got.NumShards() != sh.NumShards() || got.Len() != sh.Len() ||
					got.RangeColumn() != sh.RangeColumn() || !slices.Equal(got.Cuts(), sh.Cuts()) {
					t.Fatalf("shape changed: %d shards, %d rows on %d cut at %v; want %d, %d on %d cut at %v",
						got.NumShards(), got.Len(), got.RangeColumn(), got.Cuts(),
						sh.NumShards(), sh.Len(), sh.RangeColumn(), sh.Cuts())
				}
				requireSameResults(t, sh, got, queries)
			}
		})
	}
}

// withPartitionWord is EncodeSharded with word in the layout's partition
// slot, which EncodeSharded always writes 0.
func withPartitionWord(t *testing.T, s *shard.Sharded, word int) []byte {
	t.Helper()
	layout := binio.NewWriter()
	layout.Int(s.NumShards())
	layout.Int(word)
	layout.Int(s.RangeColumn())
	layout.Float64s(s.Cuts())
	layout.Int(s.Dims())
	sections := []rawSection{{id: secShardMeta, payload: layout.Bytes()}}
	for i := 0; i < s.NumShards(); i++ {
		err := s.WithShard(i, func(idx *core.COAX) error {
			blob, err := EncodeIndex(idx, Options{})
			sections = append(sections, rawSection{id: shardSection(i), flags: flagPages, payload: blob})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return assemble(sections)
}

// TestHashPartitionWord: partition word 1 is what re-saving a single-index
// file wrote while hash partitioning existed. At K = 1 such a file opens
// and answers as the index saved; at K = 2, or with any other word, the
// open fails wrapping ErrLayout.
func TestHashPartitionWord(t *testing.T) {
	tab := testTable(t, 3000)
	idx := buildIndex(t, tab)
	one, err := shard.Reassemble([]*core.COAX{idx}, shard.Ranges{Col: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSharded(one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withPartitionWord(t, one, 0), want) {
		t.Fatal("withPartitionWord(0) differs from EncodeSharded")
	}
	sn, err := OpenBytes(withPartitionWord(t, one, 1))
	if err != nil {
		t.Fatalf("word 1 at K = 1: %v", err)
	}
	if got := sn.Index(); got.NumShards() != 1 || got.RangeColumn() != -1 || got.Len() != idx.Len() {
		t.Fatalf("word 1 at K = 1 opened as %d shards on column %d holding %d rows, want 1 on -1 holding %d",
			got.NumShards(), got.RangeColumn(), got.Len(), idx.Len())
	}
	requireSameResults(t, idx, sn.Index(), testQueries(tab))

	opt := core.DefaultOptions()
	opt.SoftFD.SampleCount = 2000
	two, err := shard.Build(tab, opt, shard.Options{NumShards: 2, Column: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    *shard.Sharded
		word int
	}{{two, 1}, {one, 2}, {two, -1}} {
		if _, err := OpenBytes(withPartitionWord(t, tc.s, tc.word)); !errors.Is(err, ErrLayout) {
			t.Errorf("word %d at K = %d: open error %v, want ErrLayout", tc.word, tc.s.NumShards(), err)
		}
	}
}

// TestMappedMutationAndReencode proves a mapped index stays fully mutable
// (inserts, deletes, compaction) and that saving the mutated index again —
// overflow pages and tombstones over store-backed pages — round-trips.
func TestMappedMutationAndReencode(t *testing.T) {
	tab := testTable(t, 3000)
	idx := buildIndex(t, tab)
	for _, compress := range []bool{false, true} {
		blob, err := EncodeIndex(idx, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		sn, err := OpenBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		got := single(t, sn)

		rng := rand.New(rand.NewSource(11))
		var inserted [][]float64
		for i := 0; i < 50; i++ {
			row := tab.Row(rng.Intn(tab.Len()))
			nr := append([]float64(nil), row...)
			nr[0] += 0.5
			if err := got.Insert(nr); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			inserted = append(inserted, nr)
		}
		for i := 0; i < 30; i++ {
			row := tab.Row(i * 7)
			if err := got.Delete(append([]float64(nil), row...)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		// Save the mutated mapped index again and reopen it.
		again, err := EncodeIndex(got, Options{Compress: compress})
		if err != nil {
			t.Fatalf("re-encode of mapped index: %v", err)
		}
		reopened, err := OpenBytes(again)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		heap := reopened.Index()
		requireSameResults(t, heap, got, testQueries(tab))

		// Compact materializes the pages; the store must be gone after.
		got.Compact()
		if got.Primary() != nil && got.Primary().Mapped() {
			t.Fatal("primary still store-backed after Compact")
		}
		requireSameResults(t, heap, got, testQueries(tab))
		if err := sn.PageErr(); err != nil {
			t.Fatalf("PageErr: %v", err)
		}
	}
}

func TestOpenFileMapped(t *testing.T) {
	tab := testTable(t, 2000)
	idx := buildIndex(t, tab)
	blob, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.coax3")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	sn, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer sn.Close()
	requireSameResults(t, idx, sn.Index(), testQueries(tab))
	if err := sn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestColcodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []func(r, d int) float64{
		func(r, d int) float64 { return float64(1_000_000 + r*3 + d) },        // dense ints
		func(r, d int) float64 { return rng.NormFloat64() * 1e6 },             // floats
		func(r, d int) float64 { return 42 },                                  // constant
		func(r, d int) float64 { return float64(rng.Int63())*2 - float64(1) }, // wide ints
		func(r, d int) float64 { return math.Copysign(0, -1) },                // -0.0 must survive
		func(r, d int) float64 { return rng.Float64() },                       // mantissa-dense
		func(r, d int) float64 { return float64(rng.Intn(2)) },                // 1-bit ints
	}
	for ci, gen := range cases {
		for _, rows := range []int{1, 2, 63, 64, 65, 500} {
			dims := 3
			page := make([]float64, rows*dims) // column-major
			for r := 0; r < rows; r++ {
				for d := 0; d < dims; d++ {
					page[d*rows+r] = gen(r, d)
				}
			}
			blob := encodePage(page, rows, dims)
			if len(blob) > 5+rows*dims*8 {
				t.Fatalf("case %d rows %d: blob %d bytes exceeds raw bound %d", ci, rows, len(blob), 5+rows*dims*8)
			}
			out := make([]float64, rows*dims)
			if err := decodePage(blob, out, rows, dims, -1); err != nil {
				t.Fatalf("case %d rows %d: decode: %v", ci, rows, err)
			}
			for i := range page {
				if math.Float64bits(page[i]) != math.Float64bits(out[i]) {
					t.Fatalf("case %d rows %d: value %d: %x != %x", ci, rows, i, math.Float64bits(page[i]), math.Float64bits(out[i]))
				}
			}
		}
	}
}

func TestCompressionShrinksIntHeavyData(t *testing.T) {
	tab := testTable(t, 20000)
	idx := buildIndex(t, tab)
	plain, err := EncodeIndex(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compressed blob %d bytes ≥ plain %d", len(packed), len(plain))
	}
	t.Logf("plain %d bytes, compressed %d bytes (%.2fx)", len(plain), len(packed), float64(len(plain))/float64(len(packed)))
}

// TestConcurrentReaders hammers one compressed snapshot from many
// goroutines: the read path is stateless — each scan decodes into its own
// scratch — so nothing but the mapping and the error latch is shared. Run
// with -race.
func TestConcurrentReaders(t *testing.T) {
	tab := testTable(t, 5000)
	idx := buildIndex(t, tab)
	blob, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := OpenBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	queries := testQueries(tab)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = index.Count(idx, q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, q := range queries {
					if got := index.Count(sn.Index(), q); got != want[i] {
						t.Errorf("worker %d query %d: count %d, want %d", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sn.PageErr(); err != nil {
		t.Fatalf("PageErr: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	tab := testTable(t, 2000)
	idx := buildIndex(t, tab)
	for _, compress := range []bool{false, true} {
		blob, err := EncodeIndex(idx, Options{Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		// Truncations anywhere must error, never panic.
		for _, n := range []int{0, 4, 11, 15, 16, headerSize + 8, len(blob) / 2, len(blob) - 1} {
			if _, err := OpenBytes(blob[:n]); err == nil {
				t.Errorf("compress=%v: truncation to %d bytes opened", compress, n)
			}
		}
		// A flipped byte in the compressed data region must surface through
		// Verify (and PageErr once queried); plain-section flips fail open.
		bad := append([]byte(nil), blob...)
		bad[len(bad)-9] ^= 0xff
		if err := Verify(bad); err == nil {
			t.Errorf("compress=%v: Verify accepted corrupt tail", compress)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	if _, err := OpenBytes([]byte("COAXSNAPxxxx")); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	if _, err := OpenBytes([]byte("NOTASNAPxxxx")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	// A v1 or v2 file must be rejected with ErrVersion, not mangled.
	for _, file := range []string{"osm600-2shard.v2", "osm-rtree.v1"} {
		blob, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBytes(blob); !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion for %s, got %v", file, err)
		}
	}
}

func TestInspect(t *testing.T) {
	tab := testTable(t, 3000)
	idx := buildIndex(t, tab)
	blob, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != Version || st.Bytes != uint64(len(blob)) {
		t.Fatalf("Inspect header: %+v", st)
	}
	var sawGrid bool
	for _, s := range st.Sections {
		if s.ID == secPrimary {
			sawGrid = true
			if !s.Compressed || s.Cells == 0 {
				t.Fatalf("primary section stat: %+v", s)
			}
			if s.DecodedBytes <= s.Len {
				t.Fatalf("expected decoded %d > on-disk %d for compressed grid", s.DecodedBytes, s.Len)
			}
		}
	}
	if !sawGrid {
		t.Fatal("no primary grid section in Inspect output")
	}
}
