package mmapsnap

import (
	"encoding/binary"
	"math"

	"github.com/coax-index/coax/internal/index"
)

// Range tests on packed codes. Both packed encodings keep their values'
// order inside a page's frame — the values the header's base and width can
// express — so a test lo ≤ v ≤ hi becomes one interval of codes, and the
// kernel compares packed integers without building a float64 (BitWeaving:
// Li & Patel, SIGMOD 2013):
//
//   - integer frame of reference: value base+c for code c, and the int64 →
//     float64 conversion never reverses an order, so the codes that pass
//     are the integers from the first whose float is ≥ lo to the last
//     whose float is ≤ hi, less base;
//   - float XOR: a code c gives the bit pattern ref^c, whose sign and high
//     bits are the frame's own, so only the low bits vary; patterns of one
//     sign order as their values do (reversed when negative), so the test
//     is an interval of low bits after one XOR.
//
// A frame that lies inside [lo, hi] proves the column for the page without
// reading a code, and one outside it clears the selection (Data Blocks:
// Lang et al., SIGMOD 2016). What keeps no order — a raw column, a pack
// width of 64 (its frame spans both signs), an integer frame that wraps
// past the int64 range, an XOR frame reaching NaN patterns, which pass any
// test — is unpacked and tested as floats.

// codeTest is a column's range test carried into its code domain over one
// page: code c passes when (c ^ flip) − from ≤ span, in uint64
// arithmetic.
type codeTest struct{ flip, from, span uint64 }

// frameTest is what a column's frame decides about a range test over its
// page.
type frameTest int

const (
	frameCodes  frameTest = iota // the codes decide: run the code kernel
	frameAll                     // every row passes
	frameNone                    // no row passes
	frameFloats                  // the codes keep no order: test the values
)

const (
	signBit = 1 << 63
	posInf  = 0x7ff0_0000_0000_0000 // +Inf's pattern; every pattern above it of that sign is a NaN
	negInf  = signBit | posInf
)

// codeBounds translates the test !(v < lo || v > hi) — a NaN bound leaves
// its side open, as it does there — into the column's code domain.
func (v *colView) codeBounds(lo, hi float64) (codeTest, frameTest) {
	if v.width < 64 {
		switch v.enc {
		case encIntFOR:
			return forBounds(int64(v.base), 1<<uint(v.width)-1, lo, hi)
		case encFloatXR:
			return xorBounds(v.base, 1<<uint(v.width)-1, lo, hi)
		}
	}
	return codeTest{}, frameFloats
}

// forBounds is codeBounds for an integer frame of codes [0, m] over the
// values base, base+1, …, base+m.
func forBounds(base int64, m uint64, lo, hi float64) (codeTest, frameTest) {
	top := base + int64(m)
	if top < base {
		return codeTest{}, frameFloats // the frame wraps past the largest int64
	}
	fb, ft := float64(base), float64(top)
	var from, to uint64
	switch {
	case !(lo > fb):
		from = 0
	case lo > ft:
		return codeTest{}, frameNone
	default:
		from = forFirst(base, m, lo)
	}
	switch {
	case !(hi < ft):
		to = m
	case hi < fb:
		return codeTest{}, frameNone
	default:
		to = forLast(base, m, hi)
	}
	return codeInterval(0, from, to, m)
}

// forFirst returns the first code of [0, m] whose value converts to a float
// ≥ lo, for lo in (float64(base), float64(base+m)]. Below 2^53 every
// integer is a float, so that is ⌈lo⌉; above it integers round to floats in
// steps, and a search finds where.
func forFirst(base int64, m uint64, lo float64) uint64 {
	if math.Abs(lo) < 1<<53 {
		return uint64(int64(math.Ceil(lo))) - uint64(base)
	}
	a, b := uint64(0), m // float(a) < lo ≤ float(b)
	for b-a > 1 {
		if mid := a + (b-a)/2; float64(base+int64(mid)) < lo {
			a = mid
		} else {
			b = mid
		}
	}
	return b
}

// forLast returns the last code of [0, m] whose value converts to a float
// ≤ hi, for hi in [float64(base), float64(base+m)); see forFirst.
func forLast(base int64, m uint64, hi float64) uint64 {
	if math.Abs(hi) < 1<<53 {
		return uint64(int64(math.Floor(hi))) - uint64(base)
	}
	a, b := uint64(0), m // float(a) ≤ hi < float(b)
	for b-a > 1 {
		if mid := a + (b-a)/2; float64(base+int64(mid)) <= hi {
			a = mid
		} else {
			b = mid
		}
	}
	return a
}

// xorBounds is codeBounds for an XOR frame: codes [0, mask] over the
// patterns ref^c, which share ref's bits outside mask.
func xorBounds(ref, mask uint64, lo, hi float64) (codeTest, frameTest) {
	h := ref &^ mask // the frame's lowest pattern; h|mask is its highest
	t := h | mask
	var pmin, pmax uint64 // the patterns [pmin, pmax] pass
	if h&signBit == 0 {
		// Positive: patterns ascend with their values.
		if t > posInf {
			return codeTest{}, frameFloats
		}
		fh, ft := math.Float64frombits(h), math.Float64frombits(t)
		switch {
		case !(lo > fh):
			pmin = h
		case lo > ft:
			return codeTest{}, frameNone
		default:
			pmin = math.Float64bits(lo) // lo > fh ≥ 0
		}
		switch {
		case !(hi < ft):
			pmax = t
		case hi < fh:
			return codeTest{}, frameNone
		default:
			pmax = math.Float64bits(hi) &^ signBit // hi ≥ 0; −0 passes what +0 does
		}
	} else {
		// Negative: patterns ascend as their values descend.
		if t > negInf {
			return codeTest{}, frameFloats
		}
		fh, ft := math.Float64frombits(h), math.Float64frombits(t) // fh the largest value
		switch {
		case !(hi < fh):
			pmin = h
		case hi < ft:
			return codeTest{}, frameNone
		default:
			pmin = math.Float64bits(hi) // hi < fh ≤ 0
		}
		switch {
		case !(lo > ft):
			pmax = t
		case lo > fh:
			return codeTest{}, frameNone
		default:
			pmax = math.Float64bits(lo) | signBit // lo ≤ 0; +0 passes what −0 does
		}
	}
	return codeInterval(ref&mask, pmin&mask, pmax&mask, mask)
}

// codeInterval is the test passing the codes c of [0, m] with c^flip in
// [from, to].
func codeInterval(flip, from, to, m uint64) (codeTest, frameTest) {
	switch {
	case from > to:
		return codeTest{}, frameNone
	case from == 0 && to == m:
		return codeTest{}, frameAll
	}
	return codeTest{flip, from, to - from}, frameCodes
}

// selectCodes is the code kernel: it writes into sel the match words of t
// over the rows rows of the column from page row row — or, with and set,
// intersects them into sel, skipping the 64-row blocks already dead — and
// returns the number of codes it compared. It extracts codes as unpack
// does, one unaligned load for the rows below fast and two words for the
// rest. The view is taken by value so the loops keep its fields in
// registers.
func (v colView) selectCodes(t codeTest, row, rows int, sel []uint64, and bool) (compared int) {
	raw, width, fast := v.raw, v.width, v.fast
	mask := uint64(1)<<uint(width) - 1
	flip, from, span := t.flip, t.from, t.span
	for w := range sel {
		n := min(rows-w<<6, 64)
		live := ^uint64(0)
		if and {
			if live = sel[w]; live == 0 {
				continue
			}
		}
		first := row + w<<6
		bit := first * width
		var bits uint64
		if first+n <= fast {
			bits = t.matchLoads(raw, bit, width, n)
		} else {
			for i := 0; i < n; i, bit = i+1, bit+width {
				wi, off := bit>>6<<3, uint(bit&63)
				x := binary.LittleEndian.Uint64(raw[wi:]) >> off
				if off+uint(width) > 64 {
					x |= binary.LittleEndian.Uint64(raw[wi+8:]) << (64 - off)
				}
				if (x&mask^flip)-from <= span {
					bits |= 1 << uint(i)
				}
			}
		}
		sel[w] = live & bits
		compared += n
	}
	return compared
}

// matchLoads returns the match bits of the n codes of width bits from bit
// bit of raw on, each of which one unaligned 8-byte load holds — the
// kernel's inner loop, on its own so that its few variables stay in
// registers.
func (t codeTest) matchLoads(raw []byte, bit, width, n int) (bits uint64) {
	mask := uint64(1)<<uint(width) - 1
	for i := 0; i < n; i, bit = i+1, bit+width {
		at := bit >> 3
		x := binary.LittleEndian.Uint64(raw[at:at+8]) >> uint(bit&7) & mask
		var pass uint64
		if (x^t.flip)-t.from <= t.span {
			pass = 1
		}
		bits |= pass << (uint(i) & 63)
	}
	return bits
}

// Select implements index.Columns: it tests column k over span rows
// [at, at+rows) on its frame, then on its codes, and unpacks only a column
// whose codes keep no order, over the rows still live, to test it as
// floats.
func (r *pageCols) Select(k int, lo, hi float64, at, rows int, sel []uint64, and bool) int {
	v := &r.views[k]
	t, f := v.codeBounds(lo, hi)
	switch f {
	case frameAll:
		if !and {
			index.SelectAll(sel, rows)
		}
		return 0
	case frameNone:
		clear(sel)
		return 0
	case frameFloats:
		from, to := 0, rows
		if and {
			from, to = index.SelRange(sel)
		}
		r.Pull(k, at+from, at+to)
		index.RangeBits(r.page[k*r.n+r.lo+at:], 1, rows, lo, hi, sel, and)
		return rows
	}
	r.coded += v.selectCodes(t, r.lo+at, rows, sel, and)
	return rows
}
