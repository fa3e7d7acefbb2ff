package mmapsnap

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/gridfile"
)

// Grid page section codec. The section holds a small binio header (grid
// configuration, boundary vectors, heap-owned overflow pages, a region
// table) followed by 64-byte-aligned fixed-width regions: the offsets
// directory, the tombstone bitmap, the optional compressed-page directory,
// and the row data itself. Uncompressed data is row-major and read in place
// out of the mapping through a rawStore; compressed data is decoded per
// read, per cell, column-major, through a gridStore.

// gridSection is the parsed header plus region byte ranges.
type gridSection struct {
	gridDims    []int
	sortDim     int
	cellsPerDim int // the most cells an axis may have; each bounds vector gives its own
	mode        int
	label       string
	dims        int
	bounds      [][]float64
	overflow    map[int][]float64
	compressed  bool

	offsetsB []byte // (cells+1) × i64
	deadB    []byte // bitmap words
	pagedirB []byte // compressed only: (cells+1) × u64
	dataB    []byte
}

// regionTable are the fixed-width offset/length pairs at the header tail.
type regionTable struct {
	offsetsOff, offsetsLen uint64
	deadOff, deadLen       uint64
	pagedirOff, pagedirLen uint64
	dataOff, dataLen       uint64
}

// encodeGridSection lays a grid file out as a page section payload. When
// compress is set, each cell page is compressed independently (empty cells
// occupy zero bytes); otherwise the data region is the raw row-major
// payload, alias-mappable on open. The grid's resident pages are
// column-major; the v3 bytes are the same either way.
func encodeGridSection(g *gridfile.GridFile, compress bool) []byte {
	p := g.ExportParts()
	nCells := len(p.Offsets) - 1
	mainRows := int(p.Offsets[nCells])

	var (
		pagedir []uint64
		blobs   [][]byte
		dataLen int
	)
	if compress {
		pagedir = make([]uint64, nCells+1)
		blobs = make([][]byte, 0, nCells)
		g.CellPages(func(c int, page gridfile.Span) {
			if rows := page.Rows; rows > 0 {
				blob := encodePage(page.Data, rows, p.Dims)
				blobs = append(blobs, blob)
				dataLen += len(blob)
			}
			pagedir[c+1] = uint64(dataLen)
		})
	} else {
		dataLen = mainRows * p.Dims * 8
	}

	// The header's fixed-width region table makes its length independent of
	// the values inside, so one dry run sizes it and the real offsets are
	// written on the second pass.
	emit := func(rt regionTable) []byte {
		hw := binio.NewWriter()
		hw.Ints(p.GridDims)
		hw.Int(p.SortDim)
		hw.Int(p.CellsPerDim)
		hw.Int(int(p.Mode))
		hw.String(p.Label)
		hw.Int(p.Dims)
		hw.Uint64(uint64(len(p.Bounds)))
		for _, b := range p.Bounds {
			hw.Float64s(b)
		}
		cells := make([]int, 0, len(p.Overflow))
		for c := range p.Overflow {
			cells = append(cells, c)
		}
		sort.Ints(cells)
		hw.Uint64(uint64(len(cells)))
		for _, c := range cells {
			hw.Int(c)
			hw.Float64s(p.Overflow[c])
		}
		hw.Bool(compress)
		for _, v := range []uint64{
			rt.offsetsOff, rt.offsetsLen, rt.deadOff, rt.deadLen,
			rt.pagedirOff, rt.pagedirLen, rt.dataOff, rt.dataLen,
		} {
			hw.Uint64(v)
		}
		return hw.Bytes()
	}

	headerLen := len(emit(regionTable{}))
	var rt regionTable
	cursor := align64(8 + headerLen)
	place := func(n int) (off uint64) {
		off = uint64(cursor)
		cursor = align64(cursor + n)
		return off
	}
	rt.offsetsLen = uint64((nCells + 1) * 8)
	rt.offsetsOff = place(int(rt.offsetsLen))
	rt.deadLen = uint64(len(p.DeadWords) * 8)
	rt.deadOff = place(int(rt.deadLen))
	if compress {
		rt.pagedirLen = uint64((nCells + 1) * 8)
		rt.pagedirOff = place(int(rt.pagedirLen))
	}
	rt.dataLen = uint64(dataLen)
	rt.dataOff = place(dataLen)

	out := make([]byte, 0, cursor)
	out = binary.LittleEndian.AppendUint64(out, uint64(headerLen))
	out = append(out, emit(rt)...)
	pad := func(to uint64) {
		for uint64(len(out)) < to {
			out = append(out, 0)
		}
	}
	pad(rt.offsetsOff)
	for _, v := range p.Offsets {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	pad(rt.deadOff)
	for _, w := range p.DeadWords {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	if compress {
		pad(rt.pagedirOff)
		for _, v := range pagedir {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	pad(rt.dataOff)
	if compress {
		for _, blob := range blobs {
			out = append(out, blob...)
		}
	} else {
		// The data region is row-major: each column-major page is written
		// row by row.
		g.CellPages(func(c int, page gridfile.Span) {
			for r := 0; r < page.Rows; r++ {
				for d := 0; d < p.Dims; d++ {
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(page.Data[d*page.Rows+r]))
				}
			}
		})
	}
	return out
}

// parseGridSection validates the header and region table of a grid page
// section: every region must lie inside the payload on a 64-byte boundary
// with exactly the length the directory implies, so no later access can
// read past the mapping.
func parseGridSection(payload []byte) (*gridSection, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: grid section of %d bytes", ErrTruncated, len(payload))
	}
	headerLen := binary.LittleEndian.Uint64(payload)
	if headerLen > uint64(len(payload))-8 {
		return nil, fmt.Errorf("%w: grid header of %d bytes in section of %d", ErrTruncated, headerLen, len(payload))
	}
	hr := binio.NewReader(payload[8 : 8+headerLen])
	s := &gridSection{
		gridDims:    hr.Ints(),
		sortDim:     hr.Int(),
		cellsPerDim: hr.Int(),
		mode:        hr.Int(),
		label:       hr.String(),
		dims:        hr.Int(),
	}
	nBounds := hr.Uint64()
	if hr.Err() != nil {
		return nil, fmt.Errorf("%w: grid header: %v", ErrLayout, hr.Err())
	}
	if nBounds != uint64(len(s.gridDims)) {
		return nil, fmt.Errorf("%w: %d boundary vectors for %d grid dims", ErrLayout, nBounds, len(s.gridDims))
	}
	s.bounds = make([][]float64, nBounds)
	for i := range s.bounds {
		s.bounds[i] = hr.Float64s()
	}
	nOverflow := hr.Uint64()
	if hr.Err() != nil {
		return nil, fmt.Errorf("%w: grid header: %v", ErrLayout, hr.Err())
	}
	for i := uint64(0); i < nOverflow; i++ {
		c := hr.Int()
		page := hr.Float64s()
		if hr.Err() != nil {
			break
		}
		if s.overflow == nil {
			s.overflow = make(map[int][]float64)
		}
		if _, dup := s.overflow[c]; dup {
			return nil, fmt.Errorf("%w: overflow page for cell %d listed twice", ErrLayout, c)
		}
		s.overflow[c] = page
	}
	s.compressed = hr.Bool()
	var rt regionTable
	for _, v := range []*uint64{
		&rt.offsetsOff, &rt.offsetsLen, &rt.deadOff, &rt.deadLen,
		&rt.pagedirOff, &rt.pagedirLen, &rt.dataOff, &rt.dataLen,
	} {
		*v = hr.Uint64()
	}
	if err := hr.Close(); err != nil {
		return nil, fmt.Errorf("%w: grid header: %v", ErrLayout, err)
	}

	region := func(name string, off, length uint64, aligned bool) ([]byte, error) {
		if off+length < off || off+length > uint64(len(payload)) {
			return nil, fmt.Errorf("%w: %s region [%d,%d) outside section of %d bytes",
				ErrLayout, name, off, off+length, len(payload))
		}
		if aligned && off%pageAlign != 0 {
			return nil, fmt.Errorf("%w: %s region at unaligned offset %d", ErrLayout, name, off)
		}
		if off < 8+headerLen && length > 0 {
			return nil, fmt.Errorf("%w: %s region overlaps header", ErrLayout, name)
		}
		return payload[off : off+length], nil
	}
	var err error
	if s.offsetsB, err = region("offsets", rt.offsetsOff, rt.offsetsLen, true); err != nil {
		return nil, err
	}
	if s.deadB, err = region("tombstone", rt.deadOff, rt.deadLen, true); err != nil {
		return nil, err
	}
	if s.pagedirB, err = region("pagedir", rt.pagedirOff, rt.pagedirLen, true); err != nil {
		return nil, err
	}
	if s.dataB, err = region("data", rt.dataOff, rt.dataLen, true); err != nil {
		return nil, err
	}
	if len(s.offsetsB)%8 != 0 || len(s.deadB)%8 != 0 || len(s.pagedirB)%8 != 0 {
		return nil, fmt.Errorf("%w: region length not a multiple of 8", ErrLayout)
	}
	return s, nil
}

// Sanity ceilings on what a grid directory may claim. Together with
// maxPageExpand they guarantee that every size computed from mapped bytes
// fits in uint64 arithmetic and that no row-proportional allocation
// happens before the claim is proven plausible against on-disk bytes.
const (
	maxGridDims = 1 << 12
	maxGridRows = 1 << 48
)

// validateGridDir eagerly proves a parsed section's directory sound — the
// ground truth every page access indexes by — in O(cells), not O(rows):
// monotone offsets, a pagedir consistent with them and with the data
// region, and per-cell decoded sizes within maxPageExpand of the stored
// bytes. Both the open path and Verify go through it.
func validateGridDir(s *gridSection) (offsets []int64, pagedir []uint64, err error) {
	if s.dims < 1 || s.dims > maxGridDims {
		return nil, nil, fmt.Errorf("%w: grid section dims %d", ErrLayout, s.dims)
	}
	if s.sortDim >= s.dims { // page reads index the column views by it
		return nil, nil, fmt.Errorf("%w: sort dimension %d of %d", ErrLayout, s.sortDim, s.dims)
	}
	offsets = asInt64s(s.offsetsB)
	if len(offsets) == 0 {
		return nil, nil, fmt.Errorf("%w: empty offsets region", ErrLayout)
	}
	nCells := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, nil, fmt.Errorf("%w: offsets start at %d", ErrLayout, offsets[0])
	}
	for c := 1; c <= nCells; c++ {
		if offsets[c] < offsets[c-1] {
			return nil, nil, fmt.Errorf("%w: offsets not monotone at cell %d", ErrLayout, c)
		}
	}
	mainRows := offsets[nCells]
	if mainRows > maxGridRows {
		return nil, nil, fmt.Errorf("%w: directory claims %d rows", ErrLayout, mainRows)
	}
	if !s.compressed {
		if uint64(len(s.dataB)) != uint64(mainRows)*uint64(s.dims)*8 {
			return nil, nil, fmt.Errorf("%w: data region of %d bytes for %d×%d rows", ErrLayout, len(s.dataB), mainRows, s.dims)
		}
		return offsets, nil, nil
	}
	pagedir = asUint64s(s.pagedirB)
	if len(pagedir) != nCells+1 {
		return nil, nil, fmt.Errorf("%w: pagedir has %d entries, directory implies %d", ErrLayout, len(pagedir), nCells+1)
	}
	if pagedir[0] != 0 {
		return nil, nil, fmt.Errorf("%w: pagedir starts at %d", ErrLayout, pagedir[0])
	}
	for c := 1; c <= nCells; c++ {
		if pagedir[c] < pagedir[c-1] {
			return nil, nil, fmt.Errorf("%w: pagedir not monotone at cell %d", ErrLayout, c)
		}
		rows := uint64(offsets[c] - offsets[c-1])
		blobLen := pagedir[c] - pagedir[c-1]
		if rows == 0 && blobLen != 0 {
			return nil, nil, fmt.Errorf("%w: empty cell %d has a %d-byte blob", ErrLayout, c-1, blobLen)
		}
		// rows ≤ maxGridRows and dims ≤ maxGridDims keep this product well
		// inside uint64.
		if blobLen < rows*uint64(s.dims)*8/maxPageExpand {
			return nil, nil, fmt.Errorf("%w: cell %d claims %d rows from a %d-byte blob", ErrLayout, c-1, rows, blobLen)
		}
	}
	if pagedir[nCells] != uint64(len(s.dataB)) {
		return nil, nil, fmt.Errorf("%w: pagedir covers %d data bytes, region has %d", ErrLayout, pagedir[nCells], len(s.dataB))
	}
	return offsets, pagedir, nil
}

// openGridSection assembles a queryable grid file over a parsed section.
// errs wires a compressed section into the snapshot's sticky error latch.
func openGridSection(s *gridSection, errs *errBox) (*gridfile.GridFile, error) {
	offsets, pagedir, err := validateGridDir(s)
	if err != nil {
		return nil, err
	}

	parts := gridfile.Parts{
		GridDims:    s.gridDims,
		SortDim:     s.sortDim,
		CellsPerDim: s.cellsPerDim,
		Mode:        gridfile.BoundsMode(s.mode),
		Label:       s.label,
		Dims:        s.dims,
		Bounds:      s.bounds,
		Offsets:     offsets,
		Overflow:    s.overflow,
		DeadWords:   append([]uint64(nil), asUint64s(s.deadB)...), // heap copy: deletes mutate it
		TrustPages:  true,
	}
	if s.compressed {
		parts.Store = &gridStore{
			data:    s.dataB,
			pagedir: pagedir,
			rows:    offsets,
			dims:    s.dims,
			sortDim: s.sortDim,
			errs:    errs,
		}
	} else {
		parts.Store = &rawStore{
			data:    asFloat64s(s.dataB),
			rows:    offsets,
			dims:    s.dims,
			sortDim: s.sortDim,
		}
	}
	g, err := gridfile.FromParts(parts)
	if err != nil {
		return nil, fmt.Errorf("mmapsnap: %w", err)
	}
	return g, nil
}

// --- zero-copy region views ---
//
// On little-endian hosts the fixed-width regions are aliased in place:
// every region is 64-byte aligned relative to the blob, and Open only
// hands payloads here when the blob base itself is 64-byte aligned (mmap
// returns page-aligned memory; the fallback and copy paths allocate
// aligned buffers), so the element alignment the casts require always
// holds. Big-endian hosts get a correct-but-copying decode instead.

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func asInt64s(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func asUint64s(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func asFloat64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
