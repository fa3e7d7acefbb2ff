package mmapsnap

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
)

// oneColumnPage wraps an encoded column — encodeColumn's, or any other the
// format allows — as a one-column page and returns its column source over
// the span starting at page row lo, with the column decoded whole.
func oneColumnPage(t testing.TB, enc []byte, rows, lo int) (*pageCols, []float64) {
	t.Helper()
	blob := append([]byte{0, 0, 0, 0, pageColumnar}, enc...)
	binary.LittleEndian.PutUint32(blob, crc32.Checksum(blob[4:], castagnoli))
	col := make([]float64, rows)
	if err := decodePage(blob, col, rows, 1, -1); err != nil {
		t.Fatal(err)
	}
	views, err := viewPage(blob, rows, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]float64, rows)
	for i := range page {
		page[i] = sentinel
	}
	return &pageCols{page: page, n: rows, lo: lo, sortDim: -1, views: views, have: make([]rowRange, 1)}, col
}

// xorColumn encodes col XOR-packed at width bits or wider: the widths
// encodeColumn never picks because raw is as small.
func xorColumn(col []float64, width int) []byte {
	ref := math.Float64bits(col[0])
	res := make([]uint64, len(col))
	for r, v := range col {
		res[r] = math.Float64bits(v) ^ ref
		width = max(width, bits.Len64(res[r]))
	}
	out := binary.LittleEndian.AppendUint64([]byte{encFloatXR}, ref)
	return appendPacked(append(out, byte(width)), res, width)
}

// checkSelect runs one column test through the column source and through
// the float kernel over the decoded column, from the same starting
// selection, and requires the two selections to be equal bit for bit.
// The window is rows rows from span row at; the span starts at the
// source's page row.
func checkSelect(t testing.TB, label string, pc *pageCols, col []float64, lo, hi float64, at, rows int, and bool, start uint64) {
	t.Helper()
	words := index.BatchWords(rows)
	got, want := make([]uint64, words), make([]uint64, words)
	if and {
		for w := range got {
			got[w] = start
			if n := rows - w<<6; n < 64 {
				got[w] &= 1<<uint(n) - 1
			}
			start = bits.RotateLeft64(start, 17) ^ start>>3
		}
		copy(want, got)
	}
	tests := pc.Select(0, lo, hi, at, rows, got, and)
	index.RangeBits(col[pc.lo+at:], 1, rows, lo, hi, want, and)
	for w := range got {
		if got[w] != want[w] {
			t.Fatalf("%s: [%v, %v] over rows %d+%d+%d (and %v): word %d is %#x, the float kernel's %#x",
				label, lo, hi, pc.lo, at, rows, and, w, got[w], want[w])
		}
	}
	if tests != 0 && tests != rows {
		t.Fatalf("%s: %d tests over %d rows", label, tests, rows)
	}
}

// boundsAround returns the test bounds the kernels must agree on for a
// column: ±Inf, ±0, NaN, every value, one ulp either side of it, and
// values outside the column's range.
func boundsAround(col []float64) []float64 {
	out := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), math.NaN(), -1e308, 1e308}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range col {
		out = append(out, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		lo, hi = min(lo, v), max(hi, v)
	}
	if !math.IsInf(lo, 0) && !math.IsNaN(lo) {
		out = append(out, lo-1, lo*2, lo/2)
	}
	if !math.IsInf(hi, 0) && !math.IsNaN(hi) {
		out = append(out, hi+1, hi*2, hi/2)
	}
	return out
}

// TestSelectCodesMatchesFloats holds the code kernel and the frame proofs
// to the float kernel over columns of every shape the encodings produce —
// integer frames with negative values, values around ±2^53 and ±2^62, a
// frame that wraps past the int64 range and width 0; XOR frames of either
// sign with ±0, subnormals and widths up to 64, and frames reaching ±Inf
// and NaN; raw columns — for bounds on, beside and outside the values,
// over windows at row offsets and partial words, set and ANDed.
func TestSelectCodesMatchesFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ints := func(lo, n int64) func(int) float64 {
		return func(int) float64 { return float64(lo + rng.Int63n(n)) }
	}
	pick := func(vs ...float64) func(int) float64 {
		return func(int) float64 { return vs[rng.Intn(len(vs))] }
	}
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name  string
		gen   func(r int) float64
		enc   byte // the encoding encodeColumn must pick; 0xff: force XOR
		width int  // the least width of a forced XOR column
	}{
		{"int narrow", ints(1_000_000, 5000), encIntFOR, 0},
		{"int negative", ints(-700, 1000), encIntFOR, 0},
		{"int width 0", pick(-42), encIntFOR, 0},
		{"int around 2^53", ints(1<<53-40, 80), encIntFOR, 0},
		{"int around -2^53", ints(-1<<53-40, 80), encIntFOR, 0},
		{"int above 2^53 in steps", pick(1<<53, 1<<53+2, 1<<53+4, 1<<53+6, 1<<53+8, 1<<54+4), encIntFOR, 0},
		{"int around 2^62", ints(1<<62-1<<20, 1<<21), encIntFOR, 0},
		{"int frame wraps int64", pick(1, 1<<62+1024, 1<<40), encIntFOR, 0},
		{"int spanning int64", pick(-1<<62, 1<<62-512, 0), encIntFOR, 0},
		{"xor positive", func(int) float64 { return 100 + rng.Float64()*900 }, encFloatXR, 0},
		{"xor negative", func(int) float64 { return -100 - rng.Float64()*900 }, encFloatXR, 0},
		{"xor width 0", pick(0.5), encFloatXR, 0},
		{"xor +0 and subnormals", pick(0, sub, 2*sub, 7*sub, 0.5*math.SmallestNonzeroFloat32), encFloatXR, 0},
		{"xor -0 and negative subnormals", pick(math.Copysign(0, -1), -sub, -3*sub, -1e-310), encFloatXR, 0},
		{"xor -0 with negatives", pick(math.Copysign(0, -1), -0.25, -1.5, -3), encFloatXR, 0},
		{"xor width 62", func(int) float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(1000)-500) }, encFloatXR, 0},
		{"xor width 63", func(int) float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000) }, encFloatXR, 0},
		{"xor up to +Inf", pick(1, 2, math.Inf(1)), encFloatXR, 0},
		{"xor down to -Inf", pick(-1, -2, math.Inf(-1)), encFloatXR, 0},
		{"xor near the largest float", func(int) float64 { return math.MaxFloat64 * (0.25 + rng.Float64()*0.75) }, encFloatXR, 0},
		{"xor with NaN", pick(1, 3, math.NaN()), encFloatXR, 0},
		{"xor forced 64, signs mixed", func(int) float64 { return rng.NormFloat64() }, 0xff, 64},
		{"xor forced 58, negative", func(int) float64 { return -1 - rng.Float64() }, 0xff, 58},
		{"raw", func(int) float64 { return math.Float64frombits(rng.Uint64()) }, encRawCol, 0},
	}
	for _, tc := range cases {
		for _, rows := range []int{1, 3, 64, 65, 200, 1100} {
			col := make([]float64, rows)
			for r := range col {
				col[r] = tc.gen(r)
			}
			var enc []byte
			if tc.enc == 0xff {
				enc = xorColumn(col, tc.width)
			} else if enc = encodeColumn(col); enc[0] != tc.enc && rows >= 200 {
				t.Fatalf("%s, %d rows: encoded as %d, want %d", tc.name, rows, enc[0], tc.enc)
			}
			bounds := boundsAround(col)
			for iter := 0; iter < 60; iter++ {
				lo, hi := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
				if iter%5 == 0 {
					lo = math.Inf(-1)
				} else if iter%5 == 1 {
					hi = math.Inf(1)
				}
				first := rng.Intn(rows)
				at := rng.Intn(rows - first)
				n := min(rows-first-at, index.BatchRows, 1+rng.Intn(rows))
				pc, full := oneColumnPage(t, enc, rows, first)
				checkSelect(t, tc.name, pc, full, lo, hi, at, n, iter%2 == 1, rng.Uint64())
			}
		}
	}
}

// TestColumnTestsCountWhatRan: EXPLAIN's column tests count the tests that
// ran. A page whose first tested column empties the selection reports
// rows × 1, compressed or resident: no later column is tested.
func TestColumnTestsCountWhatRan(t *testing.T) {
	const rows = 300
	tab := dataset.NewTable([]string{"s", "even", "small"})
	for r := 0; r < rows; r++ {
		tab.Append([]float64{float64(r), float64(2 * r), 1 + float64(r%7)})
	}
	g, err := gridfile.Build(tab, gridfile.Config{GridDims: []int{2}, SortDim: 0, CellsPerDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapped, errs := compressedGrid(t, g)
	r := index.Full(3)
	r.Min[1], r.Max[1] = 101, 101 // inside column 1's frame, on no value
	r.Min[2], r.Max[2] = 0, 5
	for _, tc := range []struct {
		g       *gridfile.GridFile
		columns int64
	}{{g, 1}, {mapped, 1}} {
		var p index.Probe
		n := 0
		tc.g.Scan(r, func([]float64) bool { n++; return true }, &p)
		if n != 0 || p.Scanned != rows || p.ColumnTests != rows*tc.columns {
			t.Errorf("mapped %v: %d rows, %d column tests over %d rows scanned; want none, %d × %d",
				tc.g.Mapped(), n, p.ColumnTests, p.Scanned, rows, tc.columns)
		}
	}
	if err := errs.get(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameProvesColumns: bounds that hold a column's whole frame prove it
// for the page without a code compared or a test counted, and bounds
// outside the frame clear the selection the same way.
func TestFrameProvesColumns(t *testing.T) {
	const rows = 100
	col := make([]float64, rows)
	for r := range col {
		col[r] = float64(1000 + r) // frame [1000, 1127] at width 7
	}
	pc, _ := oneColumnPage(t, encodeColumn(col), rows, 0)
	sel := make([]uint64, index.BatchWords(rows))
	for _, tc := range []struct {
		lo, hi float64
		want   int
	}{
		{999, 1127, rows},
		{math.Inf(-1), 2000, rows},
		{1128, 5000, 0},
		{0, 999.5, 0},
	} {
		if tests := pc.Select(0, tc.lo, tc.hi, 0, rows, sel, false); tests != 0 || pc.coded != 0 {
			t.Fatalf("[%v, %v]: %d tests, %d codes compared; want the frame to decide", tc.lo, tc.hi, tests, pc.coded)
		}
		n := 0
		for _, w := range sel {
			n += bits.OnesCount64(w)
		}
		if n != tc.want {
			t.Fatalf("[%v, %v]: %d rows selected, want %d", tc.lo, tc.hi, n, tc.want)
		}
	}
	if tests := pc.Select(0, 1001, 1127, 0, rows, sel, false); tests != rows || pc.coded != rows {
		t.Fatalf("[1001, 1127]: %d tests, %d codes compared; want the codes to decide", tests, pc.coded)
	}
}

// FuzzSelectCodes holds the code kernel to the float kernel, bit for bit,
// over columns built from the input by encodeColumn — integer-like, near a
// float frame, or as raw bit patterns — and bounds taken from the input or
// from the column's values and their neighbours.
func FuzzSelectCodes(f *testing.F) {
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12"), uint8(1), 3.0, 9.0, uint16(2), uint16(1), uint64(0xf0f0))
	f.Add(make([]byte, 200), uint8(2), math.Inf(-1), 0.0, uint16(0), uint16(70), uint64(1))
	f.Add([]byte("\xff\xfe\x00\x7f\x80\x01\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc"), uint8(0x26), -1.0, 1.0, uint16(5), uint16(0), uint64(0))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0\x3f"), uint8(0x80), 1.0, math.Inf(1), uint16(0), uint16(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, lo, hi float64, off, at uint16, start uint64) {
		rows := len(data) / 8
		if rows == 0 || rows > 4*index.BatchRows {
			return
		}
		col := make([]float64, rows)
		var ref uint64
		for r := range col {
			x := binary.LittleEndian.Uint64(data[8*r:])
			switch mode & 3 {
			case 0: // any bit pattern
				col[r] = math.Float64frombits(x)
			case 1: // integers, as wide as the mode says
				col[r] = float64(int64(x) >> (mode >> 2))
			default: // floats around the first value's pattern
				if r == 0 {
					ref = x
				}
				col[r] = math.Float64frombits(ref ^ x&(1<<(mode>>2)-1))
			}
		}
		if mode&0x80 != 0 {
			// Bounds on and beside the column's own values.
			vs := boundsAround(col)
			lo, hi = vs[int(off)%len(vs)], vs[int(at)%len(vs)]
		}
		first := int(off) % rows
		from := int(at) % (rows - first)
		n := min(rows-first-from, index.BatchRows)
		pc, full := oneColumnPage(t, encodeColumn(col), rows, first)
		checkSelect(t, "fuzz", pc, full, lo, hi, from, n, start&1 == 1, start)
	})
}
