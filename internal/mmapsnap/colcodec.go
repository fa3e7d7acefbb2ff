package mmapsnap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"github.com/coax-index/coax/internal/gridfile"
)

// Per-cell page compression. Each grid cell's main page compresses
// independently — the cell is the unit of access on the query path, so no
// cross-page state is needed to decode one. A page blob is:
//
//	u32 crc32c  over everything after these 4 bytes
//	u8  kind    0 = raw row-major page, 1 = columnar
//	kind 0: rows×dims f64 bit patterns
//	kind 1: per column d in 0..dims-1:
//	  u8 enc    0 = raw column, 1 = integer frame-of-reference,
//	            2 = float XOR frame-of-reference
//	  enc 0: rows × f64
//	  enc 1: u64 min (int64 two's complement), u8 width,
//	         ceil(rows*width/64) × u64 packed deltas
//	  enc 2: u64 reference bits, u8 width,
//	         ceil(rows*width/64) × u64 packed XOR residues
//
// Integer frame-of-reference applies only when every value round-trips
// exactly through int64 (correlated key columns — ids, timestamps — in
// practice); deltas against the column minimum are bit-packed at the
// narrowest width that holds the largest. Float columns XOR each value's
// bit pattern against the first row's and bit-pack the residues, which is
// lossless for any distribution and shrinks when high mantissa/exponent
// bits are shared. A column (or the whole page) falls back to raw when
// packing would not shrink it, so a blob is never larger than
// 5 + rows*dims*8 bytes.

const (
	pageRaw      = 0
	pageColumnar = 1

	encRawCol  = 0
	encIntFOR  = 1
	encFloatXR = 2
)

// maxPageExpand caps the decoded-to-stored size ratio of a compressed
// page. Width-0 packed columns make a blob's size independent of its row
// count, so without a cap a tiny corrupt blob could claim an arbitrarily
// large decoded page and drive row-proportional allocations before the
// page CRC is ever checked. The encoder falls back to raw storage for the
// (degenerate, all-columns-near-constant) pages that would exceed it, so
// the decoder can reject over-claiming directories as corrupt.
const maxPageExpand = 1 << 10

// encodePage compresses one column-major page: column d of its rows rows
// is cols[d*rows : (d+1)*rows]. The result always round-trips bit-exactly
// through decodePage; a kind-0 blob stores the page row-major.
func encodePage(cols []float64, rows, dims int) []byte {
	rawSize := 5 + rows*dims*8
	enc := make([][]byte, dims)
	colSize := 1 // kind byte
	for d := 0; d < dims; d++ {
		enc[d] = encodeColumn(cols[d*rows : (d+1)*rows])
		colSize += len(enc[d])
	}
	blob := make([]byte, 4, min(colSize+4, rawSize))
	if colSize+4 < rawSize && rawSize <= maxPageExpand*(colSize+4) {
		blob = append(blob, pageColumnar)
		for d := 0; d < dims; d++ {
			blob = append(blob, enc[d]...)
		}
	} else {
		blob = append(blob, pageRaw)
		for r := 0; r < rows; r++ {
			for d := 0; d < dims; d++ {
				blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(cols[d*rows+r]))
			}
		}
	}
	binary.LittleEndian.PutUint32(blob, crc32.Checksum(blob[4:], castagnoli))
	return blob
}

// encodeColumn emits one column with the cheapest lossless encoding.
func encodeColumn(col []float64) []byte {
	rows := len(col)
	rawSize := 1 + rows*8

	// Integer frame-of-reference: exact int64 round-trip required for
	// every value (rejecting -0.0, NaN, ±Inf and fractions).
	ints := make([]int64, rows)
	intOK := true
	for r, v := range col {
		iv := int64(v)
		if float64(iv) != v || (v == 0 && math.Signbit(v)) {
			intOK = false
			break
		}
		ints[r] = iv
	}
	if intOK && rows > 0 {
		minV := ints[0]
		for _, iv := range ints {
			if iv < minV {
				minV = iv
			}
		}
		var maxDelta uint64
		deltas := make([]uint64, rows)
		for r, iv := range ints {
			// Two's-complement subtraction in uint64 is overflow-safe for
			// any int64 spread.
			dlt := uint64(iv) - uint64(minV)
			deltas[r] = dlt
			if dlt > maxDelta {
				maxDelta = dlt
			}
		}
		width := bits.Len64(maxDelta)
		if size := 10 + packedBytes(rows, width); size < rawSize {
			out := make([]byte, 0, size)
			out = append(out, encIntFOR)
			out = binary.LittleEndian.AppendUint64(out, uint64(minV))
			out = append(out, byte(width))
			return appendPacked(out, deltas, width)
		}
	}

	// Float XOR frame-of-reference: always lossless.
	if rows > 0 {
		ref := math.Float64bits(col[0])
		var maxRes uint64
		res := make([]uint64, rows)
		for r, v := range col {
			x := math.Float64bits(v) ^ ref
			res[r] = x
			if x > maxRes {
				maxRes = x
			}
		}
		width := bits.Len64(maxRes)
		if size := 10 + packedBytes(rows, width); size < rawSize {
			out := make([]byte, 0, size)
			out = append(out, encFloatXR)
			out = binary.LittleEndian.AppendUint64(out, ref)
			out = append(out, byte(width))
			return appendPacked(out, res, width)
		}
	}

	out := make([]byte, 0, rawSize)
	out = append(out, encRawCol)
	for _, v := range col {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func packedWords(rows, width int) int { return (rows*width + 63) / 64 }
func packedBytes(rows, width int) int { return packedWords(rows, width) * 8 }

// appendPacked bit-packs vs LSB-first at the given width into out.
func appendPacked(out []byte, vs []uint64, width int) []byte {
	if width == 0 {
		return out
	}
	words := make([]uint64, packedWords(len(vs), width))
	bit := 0
	for _, v := range vs {
		w, off := bit>>6, uint(bit&63)
		words[w] |= v << off
		if off+uint(width) > 64 {
			words[w+1] |= v >> (64 - off)
		}
		bit += width
	}
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// blobCursor is a bounds-checked reader over one page blob. Unlike
// binio.Reader it is allocation-free on the hot decode path.
type blobCursor struct {
	b   []byte
	off int
}

func (c *blobCursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.off < n {
		return nil, fmt.Errorf("%w: blob needs %d bytes at %d, has %d", ErrPage, n, c.off, len(c.b)-c.off)
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s, nil
}

// colView is one column of a page blob, located but not decoded: where its
// values are and how to unpack any one of them. Fixed-width packing makes a
// column random-access, so a reader unpacks only the rows it wants. A raw
// page is viewed as dims raw columns interleaved at stride dims*8.
type colView struct {
	enc    byte
	width  int    // packed encodings: bits per value, 0..64
	base   uint64 // encIntFOR: column minimum; encFloatXR: reference bits
	stride int    // encRawCol: bytes from one row's value to the next
	raw    []byte // the values: f64 bit patterns, or the packed words
}

// stackCols is how many column views a page read keeps on its stack; a
// wider page spills the views to the heap.
const stackCols = 16

// viewPage checks a page blob's CRC and walks its headers once — page kind,
// then per column the encoding, base, pack width and the byte range the row
// count implies — appending one view per column to cols. Reaching the
// blob's last byte exactly is the consumption check, so a view never reads
// outside its range and no byte of the blob goes unaccounted for. rows ≥ 1:
// an empty cell has no blob.
func viewPage(blob []byte, rows, dims int, cols []colView) ([]colView, error) {
	if len(blob) < 5 {
		return nil, fmt.Errorf("%w: blob of %d bytes", ErrPage, len(blob))
	}
	want := binary.LittleEndian.Uint32(blob)
	if got := crc32.Checksum(blob[4:], castagnoli); got != want {
		return nil, fmt.Errorf("%w: page CRC %#08x, want %#08x", ErrPage, got, want)
	}
	c := blobCursor{b: blob, off: 5}
	switch kind := blob[4]; kind {
	case pageRaw:
		raw, err := c.take(rows * dims * 8)
		if err != nil {
			return nil, err
		}
		for d := 0; d < dims; d++ {
			cols = append(cols, colView{enc: encRawCol, stride: dims * 8, raw: raw[d*8:]})
		}
	case pageColumnar:
		for d := 0; d < dims; d++ {
			v, err := viewColumn(&c, rows)
			if err != nil {
				return nil, err
			}
			cols = append(cols, v)
		}
	default:
		return nil, fmt.Errorf("%w: unknown page kind %d", ErrPage, kind)
	}
	if c.off != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing blob bytes", ErrPage, len(blob)-c.off)
	}
	return cols, nil
}

func viewColumn(c *blobCursor, rows int) (v colView, err error) {
	h, err := c.take(1)
	if err != nil {
		return v, err
	}
	switch v.enc = h[0]; v.enc {
	case encRawCol:
		v.stride = 8
		v.raw, err = c.take(rows * 8)
	case encIntFOR, encFloatXR:
		if h, err = c.take(9); err != nil { // u64 base, u8 width
			return v, err
		}
		v.base, v.width = binary.LittleEndian.Uint64(h), int(h[8])
		if v.width > 64 {
			return v, fmt.Errorf("%w: pack width %d", ErrPage, v.width)
		}
		if v.raw, err = c.take(packedBytes(rows, v.width)); v.width == 0 {
			v.raw = zeroWord[:] // a constant column stores no words; unpack reads this one
		}
	default:
		err = fmt.Errorf("%w: unknown column encoding %d", ErrPage, v.enc)
	}
	return v, err
}

// zeroWord stands in for the words a width-0 column does not store.
var zeroWord [8]byte

// unpack decodes rows lo, lo+1, … of the column into dst, one per slot —
// the one set of unpack loops behind every page read: raw values, then for
// both packed encodings values of up to 57 bits, which one unaligned 8-byte
// load holds whatever their offset in its first byte, then the values that
// may straddle two words — wider ones, and the last few of a column, where
// that load would run past the words. The view is taken by value so the
// loops keep its fields in registers across the stores.
func (v colView) unpack(dst []float64, lo int) {
	raw, base, width, isInt := v.raw, v.base, v.width, v.enc == encIntFOR
	if v.enc == encRawCol {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(lo+i)*v.stride:]))
		}
		return
	}
	var mask uint64 = math.MaxUint64
	if width < 64 {
		mask = 1<<uint(width) - 1
	}
	oneLoad := 0 // dst slots below it start at a byte with 8 bytes left
	switch {
	case width == 0:
		oneLoad = len(dst) // every row reads zeroWord at bit 0
	case width <= 57 && len(raw) >= 8:
		oneLoad = max(0, min(len(dst), (8*len(raw)-57)/width+1-lo))
	}
	i, bit := 0, lo*width
	for ; i < oneLoad; i, bit = i+1, bit+width {
		x := binary.LittleEndian.Uint64(raw[bit>>3:]) >> uint(bit&7)
		dst[i] = unpacked(isInt, base, x&mask)
	}
	for ; i < len(dst); i, bit = i+1, bit+width {
		wi, off := bit>>6<<3, uint(bit&63)
		x := binary.LittleEndian.Uint64(raw[wi:]) >> off
		if off+uint(width) > 64 {
			x |= binary.LittleEndian.Uint64(raw[wi+8:]) << (64 - off)
		}
		dst[i] = unpacked(isInt, base, x&mask)
	}
}

// unpacked undoes the frame of reference on one unpacked value.
func unpacked(isInt bool, base, x uint64) float64 {
	if isInt {
		return float64(int64(base + x))
	}
	return math.Float64frombits(base ^ x)
}

// firstDescent reports the first row at which keys descend, or -1 when
// none does.
func firstDescent(keys []float64) int {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return i
		}
	}
	return -1
}

func errUnsorted(sortDim, row int) error {
	return fmt.Errorf("%w: decoded page not sorted on dimension %d at row %d", ErrPage, sortDim, row)
}

// decodePage decompresses one cell blob into dst (len rows*dims,
// column-major: column d at dst[d*rows : (d+1)*rows]), verifying the blob
// CRC, exact consumption, and — when a sort dimension is set — the page's
// sort invariant, so a corrupt page can never silently desort a
// binary-searched cell. It is readSpan's view and unpack over every row,
// for the callers that want the page whole (Verify, the codec tests).
func decodePage(blob []byte, dst []float64, rows, dims, sortDim int) error {
	var stack [stackCols]colView
	cols, err := viewPage(blob, rows, dims, stack[:0])
	if err != nil {
		return err
	}
	for d := range cols {
		cols[d].unpack(dst[d*rows:(d+1)*rows], 0)
	}
	if sortDim >= 0 {
		if r := firstDescent(dst[sortDim*rows : (sortDim+1)*rows]); r >= 0 {
			return errUnsorted(sortDim, r)
		}
	}
	return nil
}

// readSpan is the read path of a compressed page, whole on every read: CRC
// and header walk (viewPage), the sort column decoded in full and proven
// sorted, the span [lo, hi) located on it with gridfile.SpanRows, and only
// then rows lo..hi-1 of every other column unpacked. The page decodes
// column-major into *buf where a resident page would sit — column d of the
// n-row page at [d*n, (d+1)*n) — so the span reads in place with steps
// (1, n) and the sort column needs no copy. With no sort dimension the
// span is the page. *buf is replaced by a larger allocation when too small
// for the page; lo is the page-relative index of the span's first row.
func readSpan(blob []byte, n, dims, sortDim int, min, max float64, buf *[]float64) (span gridfile.Span, lo int, err error) {
	var stack [stackCols]colView
	cols, err := viewPage(blob, n, dims, stack[:0])
	if err != nil {
		return gridfile.Span{}, 0, err
	}
	need := n * dims
	if cap(*buf) < need {
		// At least doubled, so a scan grows its scratch a few times, not
		// once for every page larger than the last.
		*buf = make([]float64, need+cap(*buf))
	}
	page := (*buf)[:need]
	lo, hi := 0, n
	if sortDim >= 0 {
		keys := page[sortDim*n : (sortDim+1)*n]
		cols[sortDim].unpack(keys, 0)
		if r := firstDescent(keys); r >= 0 {
			return gridfile.Span{}, 0, errUnsorted(sortDim, r)
		}
		lo, hi = gridfile.SpanRows(keys, 1, n, min, max)
	}
	for d := range cols {
		if d != sortDim {
			cols[d].unpack(page[d*n+lo:d*n+hi], lo)
		}
	}
	return gridfile.ColumnMajor(page, n, dims).Slice(lo, hi, dims), lo, nil
}
