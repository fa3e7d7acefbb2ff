package mmapsnap

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
)

// columnGens produce the value shapes the page codec distinguishes: each
// of the three column encodings, at pack widths 0 and 64 too.
var columnGens = []func(rng *rand.Rand, r int) float64{
	func(rng *rand.Rand, r int) float64 { return float64(1_000_000 + rng.Intn(5000)) },     // int FOR, narrow
	func(rng *rand.Rand, r int) float64 { return 42 },                                      // int FOR, width 0
	func(rng *rand.Rand, r int) float64 { return float64(int64(rng.Uint64()>>1) - 1<<62) }, // int FOR, width up to 64
	func(rng *rand.Rand, r int) float64 { return 100 + rng.Float64()*900 },                 // float XOR, ~52 bits
	func(rng *rand.Rand, r int) float64 { return 0.5 },                                     // float XOR, width 0
	func(rng *rand.Rand, r int) float64 { return rng.NormFloat64() },                       // float XOR, width 64 (signs differ)
	func(rng *rand.Rand, r int) float64 { return math.Float64frombits(rng.Uint64() >> 2) }, // incompressible: raw column
	func(rng *rand.Rand, r int) float64 { return math.Copysign(0, -1) },                    // -0.0 is not an integer here
}

// sortKeyGens produce sort columns: heavy duplicates, ±Inf, signed zeros.
var sortKeyGens = []func(rng *rand.Rand) float64{
	func(rng *rand.Rand) float64 { return float64(rng.Intn(6)) },
	func(rng *rand.Rand) float64 { return rng.NormFloat64() * 50 },
	func(rng *rand.Rand) float64 {
		return []float64{math.Inf(-1), math.Copysign(0, -1), 0, 1.5, math.Inf(1)}[rng.Intn(5)]
	},
}

// randomPage draws a column-major page — column d at page[d*rows:] — that
// satisfies the sort invariant on sortDim.
func randomPage(rng *rand.Rand) (page []float64, rows, dims, sortDim int) {
	rows = []int{1, 1, 2, 3, 17, 62, 64, 65, 200}[rng.Intn(9)]
	dims = 1 + rng.Intn(9)
	if rng.Intn(12) == 0 {
		dims = stackCols + 1 + rng.Intn(4) // wider than the stack of column views
	}
	sortDim = rng.Intn(dims+1) - 1
	page = make([]float64, rows*dims)
	for d := 0; d < dims; d++ {
		gen := columnGens[rng.Intn(len(columnGens))]
		for r := 0; r < rows; r++ {
			page[d*rows+r] = gen(rng, r)
		}
	}
	if sortDim >= 0 {
		gen := sortKeyGens[rng.Intn(len(sortKeyGens))]
		keys := make([]float64, rows)
		for r := range keys {
			keys[r] = gen(rng)
		}
		sort.Float64s(keys)
		copy(page[sortDim*rows:], keys)
	}
	return page, rows, dims, sortDim
}

// randomWindow draws a sort-dimension window: around values of the page,
// degenerate, outside on either side, inverted, half-open, unbounded.
func randomWindow(rng *rand.Rand, page []float64, rows, dims, sortDim int) (min, max float64) {
	key := func() float64 {
		if sortDim < 0 {
			return rng.NormFloat64()
		}
		k := page[sortDim*rows+rng.Intn(rows)]
		switch rng.Intn(3) {
		case 0:
			return math.Nextafter(k, math.Inf(-1))
		case 1:
			return math.Nextafter(k, math.Inf(1))
		}
		return k
	}
	switch rng.Intn(8) {
	case 0:
		return math.Inf(-1), math.Inf(1)
	case 1:
		return math.Inf(-1), key()
	case 2:
		return key(), math.Inf(1)
	case 3:
		return 1e300, 1e301 // above every finite key
	case 4:
		return -1e301, -1e300
	case 5:
		k := key()
		return k, k
	}
	return key(), key() // either order: min > max is an empty window
}

// encodePagePacked lays a column-major page out columnar with every column
// XOR-packed at width bits, or more where the values need it — layouts the
// format allows and a reader must accept, though encodePage only ever picks the
// narrowest width and never packs at 64, where raw is smaller.
func encodePagePacked(page []float64, rows, dims, width int) []byte {
	blob := []byte{0, 0, 0, 0, pageColumnar}
	for d := 0; d < dims; d++ {
		ref := math.Float64bits(page[d*rows])
		res := make([]uint64, rows)
		w := width
		for r := range res {
			res[r] = math.Float64bits(page[d*rows+r]) ^ ref
			w = max(w, bits.Len64(res[r]))
		}
		blob = append(blob, encFloatXR)
		blob = binary.LittleEndian.AppendUint64(blob, ref)
		blob = appendPacked(append(blob, byte(w)), res, w)
	}
	binary.LittleEndian.PutUint32(blob, crc32.Checksum(blob[4:], castagnoli))
	return blob
}

// spanRows gathers a span's rows, row-major.
func spanRows(s gridfile.Span, dims int) []float64 {
	out := []float64{}
	for i := 0; i < s.Rows; i++ {
		out = s.AppendRow(out, i, dims)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCellSpanMatchesFullDecode: for random pages and windows, CellSpan
// returns exactly the rows gridfile.sortSpan would cut out of the fully
// decoded page — checked against sortSpan's two predicates written out
// here, and against a resident grid file over the decoded page, whose scan
// runs the real sortSpan — whatever scratch it is handed.
func TestCellSpanMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	kinds := map[byte]int{}
	encs := map[byte]int{}
	var scratch []float64
	for iter := 0; iter < 3000; iter++ {
		page, rows, dims, sortDim := randomPage(rng)
		blob := encodePage(page, rows, dims)
		if iter%8 == 7 {
			blob = encodePagePacked(page, rows, dims, []int{1, 56, 57, 58, 63, 64}[rng.Intn(6)])
		}
		kinds[blob[4]]++
		if blob[4] == pageColumnar {
			cols, err := viewPage(blob, rows, dims, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range cols {
				encs[v.enc]++
				if v.enc != encRawCol && (v.width == 0 || v.width == 64) {
					encs[byte(100+v.width)]++
				}
			}
		}
		decoded := make([]float64, rows*dims)
		if err := decodePage(blob, decoded, rows, dims, sortDim); err != nil {
			t.Fatalf("iter %d: decodePage: %v", iter, err)
		}
		if !sameBits(decoded, page) {
			t.Fatalf("iter %d: decodePage does not round-trip", iter)
		}
		store := pageStore(blob, rows, dims, sortDim)
		heap, err := gridfile.FromParts(gridfile.Parts{SortDim: sortDim, CellsPerDim: 1, Dims: dims, Offsets: []int64{0, int64(rows)}, Data: decoded})
		if err != nil {
			t.Fatalf("iter %d: resident grid: %v", iter, err)
		}
		mapped, err := gridfile.FromParts(gridfile.Parts{SortDim: sortDim, CellsPerDim: 1, Dims: dims, Offsets: []int64{0, int64(rows)}, Store: store, TrustPages: true})
		if err != nil {
			t.Fatalf("iter %d: store-backed grid: %v", iter, err)
		}

		for w := 0; w < 6; w++ {
			min, max := randomWindow(rng, page, rows, dims, sortDim)
			lo, hi := 0, rows
			if sortDim >= 0 {
				keys := decoded[sortDim*rows:]
				lo = sort.Search(rows, func(i int) bool { return keys[i] >= min })
				hi = sort.Search(rows, func(i int) bool { return keys[i] > max })
				if hi < lo {
					hi = lo
				}
			}
			// Alternate between no scratch, scratch that is too small, and
			// scratch left over from an earlier, larger page.
			buf := scratch
			switch w % 3 {
			case 0:
				buf = nil
			case 1:
				buf = make([]float64, 0, 1+rng.Intn(8))
			}
			sc := gridfile.Scratch{Vals: buf}
			got, first, ok := store.CellSpan(0, min, max, &sc)
			buf = sc.Vals
			if !ok {
				t.Fatalf("iter %d window [%v,%v]: not ok: %v", iter, min, max, store.errs.get())
			}
			whole := gridfile.ColumnMajor(decoded, rows, dims)
			if first != lo || !sameBits(spanRows(got, dims), spanRows(whole.Slice(lo, hi, dims), dims)) {
				t.Fatalf("iter %d (%d×%d sort %d) window [%v,%v]: rows [%d,+%d), want [%d,%d)", iter, rows, dims, sortDim, min, max, first, got.Rows, lo, hi)
			}
			if cap(buf) > cap(scratch) {
				scratch = buf[:0]
			}

			if min > max {
				continue // an empty rectangle never reaches a page
			}
			r := index.Full(dims)
			if sortDim >= 0 {
				r.Min[sortDim], r.Max[sortDim] = min, max
			}
			var hp, mp index.Probe
			var hr, mr []float64
			heap.Scan(r, func(row []float64) bool { hr = append(hr, row...); return true }, &hp)
			mapped.Scan(r, func(row []float64) bool { mr = append(mr, row...); return true }, &mp)
			if !sameBits(hr, mr) || hp.Scanned != mp.Scanned || hp.Pages != mp.Pages || hp.Scanned != int64(hi-lo) {
				t.Fatalf("iter %d window [%v,%v]: scan of the store-backed page: %d rows over %d scanned, resident %d over %d, span %d",
					iter, min, max, len(mr)/dims, mp.Scanned, len(hr)/dims, hp.Scanned, hi-lo)
			}
		}
	}
	// The generators are only worth their name if every layout came up.
	for _, k := range []byte{pageRaw, pageColumnar} {
		if kinds[k] == 0 {
			t.Errorf("no page of kind %d generated", k)
		}
	}
	for _, e := range []byte{encRawCol, encIntFOR, encFloatXR, 100, 164} {
		if encs[e] == 0 {
			t.Errorf("no column of encoding/width class %d generated", e)
		}
	}
}

// testSnapshot is a compressed single-index file in a 64-byte-aligned
// buffer — OpenBytes aliases it, so the test can damage bytes under an open
// snapshot — plus where one well-filled primary page lives in it.
type testSnapshot struct {
	file    []byte
	tocCRC  []byte // the primary section's CRC field in the TOC
	section []byte // the primary section's payload
	blob    []byte // one page blob inside it
	rows    int
	dims    int
	sortDim int
	probe   index.Rect // a query that reads that page
}

func newTestSnapshot(t *testing.T, encoded []byte) *testSnapshot {
	t.Helper()
	s := &testSnapshot{file: alignedBuffer(len(encoded))}
	copy(s.file, encoded)
	entries, err := parseTOC(s.file)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if e.id == secPrimary {
			s.tocCRC = s.file[headerSize+i*tocEntrySize+24:][:4]
			s.section = s.file[e.off : e.off+e.len]
		}
	}
	sec, err := parseGridSection(s.section)
	if err != nil {
		t.Fatal(err)
	}
	offsets, pagedir, err := validateGridDir(sec)
	if err != nil {
		t.Fatal(err)
	}
	s.dims, s.sortDim = sec.dims, sec.sortDim
	if s.sortDim < 0 {
		t.Fatal("primary grid has no sort dimension")
	}
	for c := 0; c+1 < len(offsets); c++ {
		rows := int(offsets[c+1] - offsets[c])
		blob := sec.dataB[pagedir[c]:pagedir[c+1]]
		if rows < 8 || blob[4] != pageColumnar {
			continue
		}
		cols, err := viewPage(blob, rows, s.dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		if last := cols[s.dims-1]; last.enc == encRawCol || last.width < 8 || last.width > 56 {
			continue
		}
		page := make([]float64, rows*s.dims)
		if err := decodePage(blob, page, rows, s.dims, s.sortDim); err != nil {
			t.Fatal(err)
		}
		if keys := page[s.sortDim*rows:]; keys[1] == keys[2] {
			continue // the swap case needs two distinct keys
		}
		s.blob, s.rows = blob, rows
		s.probe = index.Point(gridfile.ColumnMajor(page, rows, s.dims).AppendRow(nil, 4, s.dims))
		return s
	}
	t.Fatal("no suitable primary page")
	return nil
}

// restamp recomputes the page CRC (unless the damage is the CRC itself)
// and the section CRC, so the checks in front of the damaged field pass.
func (s *testSnapshot) restamp(page bool) {
	if page {
		binary.LittleEndian.PutUint32(s.blob, crc32.Checksum(s.blob[4:], castagnoli))
	}
	binary.LittleEndian.PutUint32(s.tocCRC, crc32.Checksum(s.section, castagnoli))
}

// lastColumn returns the header fields of the page's last column, as
// subslices of the blob.
func (s *testSnapshot) lastColumn(t *testing.T) (enc, width []byte) {
	t.Helper()
	cols, err := viewPage(s.blob, s.rows, s.dims, nil)
	if err != nil {
		t.Fatal(err)
	}
	words := cap(s.blob) - cap(cols[s.dims-1].raw) // offset of the packed words
	return s.blob[words-10:][:1], s.blob[words-1:][:1]
}

// TestEveryCheckOnEveryRead damages one page of a compressed snapshot one
// field at a time, with the page and section CRCs re-stamped so that only
// the check that owns the field can notice, after the page has already been
// read successfully through the open snapshot. The next windowed query must
// latch ErrPage and Verify must refuse the file: nothing about a page is
// remembered between reads.
func TestEveryCheckOnEveryRead(t *testing.T) {
	tab := testTable(t, 4000)
	idx := buildIndex(t, tab)
	encoded, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, s *testSnapshot) (restampPage bool)
		want   string
	}{
		{"page CRC", func(t *testing.T, s *testSnapshot) bool {
			s.blob[len(s.blob)/2] ^= 0x10
			return false
		}, "page CRC"},
		{"pack width 65", func(t *testing.T, s *testSnapshot) bool {
			_, width := s.lastColumn(t)
			width[0] = 65
			return true
		}, "pack width 65"},
		{"trailing bytes", func(t *testing.T, s *testSnapshot) bool {
			_, width := s.lastColumn(t)
			width[0] -= 8 // the column now ends a word or more early
			return true
		}, "trailing blob bytes"},
		{"column cut short", func(t *testing.T, s *testSnapshot) bool {
			_, width := s.lastColumn(t)
			width[0] += 8
			return true
		}, "blob needs"},
		{"unknown column encoding", func(t *testing.T, s *testSnapshot) bool {
			enc, _ := s.lastColumn(t)
			enc[0] = 9
			return true
		}, "unknown column encoding 9"},
		{"unknown page kind", func(t *testing.T, s *testSnapshot) bool {
			s.blob[4] = 7
			return true
		}, "unknown page kind 7"},
		{"swapped sort keys", func(t *testing.T, s *testSnapshot) bool {
			page := make([]float64, s.rows*s.dims)
			if err := decodePage(s.blob, page, s.rows, s.dims, s.sortDim); err != nil {
				t.Fatal(err)
			}
			a, b := s.sortDim*s.rows+1, s.sortDim*s.rows+2
			page[a], page[b] = page[b], page[a]
			// Neither the column minimum nor its first row moved, so the
			// page re-encodes to the same layout and length.
			swapped := encodePage(page, s.rows, s.dims)
			if len(swapped) != len(s.blob) {
				t.Fatalf("re-encoded page is %d bytes, was %d", len(swapped), len(s.blob))
			}
			copy(s.blob, swapped)
			return true
		}, "not sorted on dimension"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSnapshot(t, encoded)
			sn, err := OpenBytes(s.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := index.Count(sn.Index(), s.probe); n == 0 || sn.PageErr() != nil {
				t.Fatalf("before the damage: %d rows, PageErr %v", n, sn.PageErr())
			}
			if err := Verify(s.file); err != nil {
				t.Fatalf("before the damage: Verify: %v", err)
			}

			s.restamp(tc.damage(t, s))

			index.Count(sn.Index(), s.probe)
			if err := sn.PageErr(); !errors.Is(err, ErrPage) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("second read of the page: PageErr %v, want ErrPage mentioning %q", err, tc.want)
			}
			if err := Verify(s.file); !errors.Is(err, ErrPage) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify: %v, want ErrPage mentioning %q", err, tc.want)
			}
		})
	}
}

// TestScanAllocsIndependentOfPages: a scan over a compressed mapped grid —
// rows or batches — allocates at most its scratch and a page buffer that
// grows a few times to the largest page (none once the pooled scratch has
// grown), not one object per page or per batch.
func TestScanAllocsIndependentOfPages(t *testing.T) {
	tab := testTable(t, 40000)
	idx := buildIndex(t, tab)
	blob, err := EncodeIndex(idx, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := OpenBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	g := sn.Index().Primary()
	if !g.Mapped() {
		t.Fatal("primary grid is not store-backed")
	}
	full := index.Full(g.Dims())
	var probe index.Probe
	rows := 0
	g.Scan(full, func([]float64) bool { rows++; return true }, &probe)
	if probe.Pages < 500 || rows != g.Len() {
		t.Fatalf("full scan touched %d pages and %d of %d rows; the guard needs ≥ 500 pages", probe.Pages, rows, g.Len())
	}
	// The scan's scratch (prepared rectangle, Batch, selection words) and
	// its odometer, plus page-buffer growth, which at least doubles each
	// time: six doublings span any page sizes met here. Scan adds the
	// closure that walks each batch for its yield.
	const ceiling = 2 + 6
	yieldBatch := func(*index.Batch) bool { return true }
	if a := testing.AllocsPerRun(10, func() { g.ScanBatch(full, yieldBatch, nil) }); a > ceiling {
		t.Errorf("ScanBatch over %d pages in %d batches: %.0f allocations, ceiling %d", probe.Pages, probe.Batches, a, ceiling)
	}
	yield := func([]float64) bool { return true }
	if a := testing.AllocsPerRun(10, func() { g.Scan(full, yield, nil) }); a > ceiling+1 {
		t.Errorf("Scan over %d pages: %.0f allocations, ceiling %d", probe.Pages, a, ceiling+1)
	}
	if err := sn.PageErr(); err != nil {
		t.Fatal(err)
	}
}
