package main

// Shortest round-trip text for the doubles a reply carries: Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020), in place of
// strconv's Ryu for the values that dominate a row reply — normal doubles
// that encoding/json writes in 'f' form. The digits are the shortest decimal
// that reads back as v and, among those, the closest to v (ties to even),
// which is what strconv.AppendFloat(b, v, 'f', -1, 64) writes; the layout
// is its fmtF's. The differential tests in ftoa_test.go hold the two equal.

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The decimal exponents k of a double's scaling, 10^k ≤ 2^q, over every q.
const (
	kMin = -324
	kMax = 292
)

// gTable[k-kMin] is g = ⌊10^−k·2^−r⌋ + 1 for r = flog2pow10(−k) − 125, a
// 126-bit number, as its high and low 63 bits. It is built at first use.
var (
	gOnce  sync.Once
	gTable [kMax - kMin + 1][2]uint64
)

func buildGTable() {
	ten := big.NewInt(10)
	mask63 := new(big.Int).SetUint64(1<<63 - 1)
	for k := kMin; k <= kMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if r := flog2pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		lo := new(big.Int).And(g, mask63).Uint64()
		gTable[k-kMin] = [2]uint64{g.Rsh(g, 63).Uint64(), lo}
	}
}

// flog10pow2 is ⌊e·log10 2⌋, flog10threeQuartersPow2 ⌊log10(¾·2^e)⌋ and
// flog2pow10 ⌊e·log2 10⌋, each exact over the exponents a double reaches.
func flog10pow2(e int) int { return int((int64(e) * 661_971_961_083) >> 41) }

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int((int64(e) * 913_124_641_741) >> 38) }

// rop is g·cp / 2^127 rounded to odd: the scaled value with a sticky bit
// that is set when anything below it is lost.
func rop(g1, g0, cp uint64) uint64 {
	const mask63 = 1<<63 - 1
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// shortest returns the decimal f·10^e that strconv's shortest form of the
// normal double c·2^q has: the shortest in its rounding interval, the
// closest of those to it, ties to even. For a normal double s is at least
// 2^52, so Java's two-digit floor (its s ≥ 100 test and tiny-subnormal
// path) never applies and is left out.
func shortest(c uint64, q int) (f uint64, e int) {
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two: its lower neighbour is half as far.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &gTable[k-kMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// One digit fewer: at most one multiple of 10^(k+1) lies in the
	// interval, which is narrower than 10^(k+1).
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}

	// Otherwise s·10^k or (s+1)·10^k: whichever lies in the interval, or
	// the closer, ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// put8 writes the eight digits of x < 10^8 into b[:8].
func put8(b []byte, x uint32) {
	_ = b[7]
	hi, lo := x/10000, x%10000
	p0, p1, p2, p3 := hi/100*2, hi%100*2, lo/100*2, lo%100*2
	b[0], b[1] = digitPairs[p0], digitPairs[p0+1]
	b[2], b[3] = digitPairs[p1], digitPairs[p1+1]
	b[4], b[5] = digitPairs[p2], digitPairs[p2+1]
	b[6], b[7] = digitPairs[p3], digitPairs[p3+1]
}

// appendShortestF appends v as strconv.AppendFloat(b, v, 'f', -1, 64) does.
// v must be a normal double; appendFloat sends it only 1e-6 ≤ |v| < 1e21.
func appendShortestF(b []byte, v float64) []byte {
	gOnce.Do(buildGTable)
	u := math.Float64bits(v)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	f, e := shortest(1<<52|u&(1<<52-1), int(u>>52&0x7ff)-1075)

	// The digits of f, which has 16 or 17 (s ≥ 2^52 > 10^15), at fixed
	// places, two at a time; the first is '0' for 16.
	var buf [17]byte
	hi, lo := f/1e8, uint32(f%1e8)
	buf[0] = byte('0' + hi/1e8)
	put8(buf[1:9], uint32(hi%1e8))
	put8(buf[9:17], lo)
	i := 0
	if buf[0] == '0' {
		i = 1
	}
	digits := buf[i:]
	dp := len(digits) + e // the point sits after dp digits
	for digits[len(digits)-1] == '0' {
		digits = digits[:len(digits)-1]
	}

	// fmtF's layout: 0.000ddd, ddd.ddd or ddd000.
	switch {
	case dp <= 0:
		b = append(b, "0."...)
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case dp < len(digits):
		b = append(b, digits[:dp]...)
		b = append(b, '.')
		return append(b, digits[dp:]...)
	default:
		b = append(b, digits...)
		for dp -= len(digits); dp > 0; dp-- {
			b = append(b, '0')
		}
		return b
	}
}
