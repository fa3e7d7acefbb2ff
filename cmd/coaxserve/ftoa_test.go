package main

// The Schubfach formatter (ftoa.go) against encoding/json and strconv, value
// by value: the reply tests in encode_test.go see it only through whole
// bodies.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"github.com/coax-index/coax/coax"
)

// checkFloat fails t unless appendFloat writes v as json.Marshal does.
func checkFloat(t testing.TB, v float64) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", v, err)
	}
	if got := appendFloat(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%#x) = %s, encoding/json writes %s", math.Float64bits(v), got, want)
	}
}

// TestAppendFloatMatchesStrconv holds appendFloat to encoding/json on
// random bits, on random bits inside the Schubfach range, on short decimals,
// on every power of two and its neighbours, on zero and subnormals, on the
// values either side of each boundary the routing tests, and on floatCorpus.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	finiteBits := func(u uint64) {
		if v := math.Float64frombits(u); finite(v) {
			checkFloat(t, v)
		}
	}
	t.Run("random-bits", func(t *testing.T) {
		for range 1_000_000 {
			finiteBits(rng.Uint64())
		}
	})
	t.Run("random-in-range", func(t *testing.T) {
		// Biased exponents 1003 … 1093 span 2^−20 … 2^71, past both ends
		// of [1e-6, 1e21).
		for range 1_000_000 {
			exp := uint64(1003 + rng.Intn(91))
			finiteBits(rng.Uint64()&(1<<63|1<<52-1) | exp<<52)
		}
	})
	t.Run("short-decimals", func(t *testing.T) {
		// m / 10^k, correctly rounded, with up to 17 significant digits.
		for range 300_000 {
			m := rng.Int63n(int64(math.Pow10(1 + rng.Intn(17))))
			v, err := strconv.ParseFloat(strconv.FormatInt(m, 10)+"e-"+strconv.Itoa(rng.Intn(23)), 64)
			if err != nil {
				t.Fatal(err)
			}
			checkFloat(t, v)
			checkFloat(t, -v)
		}
	})
	t.Run("powers-of-two", func(t *testing.T) {
		for e := -1074; e <= 1023; e++ {
			p := math.Ldexp(1, e)
			for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
				if finite(v) {
					checkFloat(t, v)
					checkFloat(t, -v)
				}
			}
		}
	})
	t.Run("zero-and-subnormals", func(t *testing.T) {
		checkFloat(t, 0)
		checkFloat(t, math.Copysign(0, -1))
		for _, u := range []uint64{1, 2, 3, 9, 10, 1<<52 - 1} {
			finiteBits(u)
			finiteBits(1<<63 | u)
		}
		for range 100_000 {
			finiteBits(rng.Uint64() & (1<<63 | 1<<52 - 1))
		}
	})
	t.Run("boundaries", func(t *testing.T) {
		for _, edge := range []float64{1e-6, 1e21, 1 << 53} {
			lo, hi := edge, edge
			for range 64 {
				for _, v := range []float64{lo, hi} {
					checkFloat(t, v)
					checkFloat(t, -v)
				}
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			}
		}
	})
	t.Run("corpus", func(t *testing.T) {
		for _, v := range floatCorpus {
			checkFloat(t, v)
		}
	})
}

// TestShortestOverEveryNormal holds the Schubfach path itself to strconv on
// normal doubles of every exponent, outside the range appendFloat sends it.
func TestShortestOverEveryNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for exp := uint64(1); exp < 0x7ff; exp++ {
		for _, frac := range []uint64{0, 1, 1<<52 - 1, rng.Uint64() & (1<<52 - 1), rng.Uint64() & (1<<52 - 1)} {
			v := math.Float64frombits(exp<<52 | frac)
			if got, want := appendShortestF(nil, v), strconv.AppendFloat(nil, v, 'f', -1, 64); !bytes.Equal(got, want) {
				t.Fatalf("appendShortestF(%#x) = %s, strconv writes %s", math.Float64bits(v), got, want)
			}
		}
	}
}

// TestFloorLogs checks the fixed-point logarithms against exact powers over
// every exponent a double's scaling reaches.
func TestFloorLogs(t *testing.T) {
	// pow returns base^e as a rational.
	pow := func(base, e int64) *big.Rat {
		p := new(big.Int).Exp(big.NewInt(base), big.NewInt(max(e, -e)), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorLog reports whether base^k ≤ x < base^(k+1).
	floorLog := func(x *big.Rat, base int64, k int) bool {
		return pow(base, int64(k)).Cmp(x) <= 0 && x.Cmp(pow(base, int64(k+1))) < 0
	}
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		if k := flog10pow2(q); !floorLog(pow(2, int64(q)), 10, k) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		x := new(big.Rat).Mul(threeQuarters, pow(2, int64(q)))
		if k := flog10threeQuartersPow2(q); !floorLog(x, 10, k) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	for k := -kMax; k <= -kMin; k++ {
		if r := flog2pow10(k); !floorLog(pow(10, int64(k)), 2, r) {
			t.Fatalf("flog2pow10(%d) = %d", k, r)
		}
	}
}

// FuzzAppendFloat is the differential test over arbitrary bits.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatCorpus {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		if v := math.Float64frombits(u); finite(v) {
			checkFloat(t, v)
		}
	})
}

// appendFloatStrconv is appendFloat with every value on strconv: the
// formatter before Schubfach, kept as the benchmark's baseline.
func appendFloatStrconv(b []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs < 1<<53 {
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}

// BenchmarkAppendFloat formats every value of 1 000 generated rows per
// table, OSM's timestamp, lat and lon (id is an integer) and all of
// airline's columns, through strconv and through appendFloat; ns/op is per
// value.
func BenchmarkAppendFloat(b *testing.B) {
	osm := coax.GenerateOSM(coax.DefaultOSMConfig(1000))
	var osmVals []float64
	for i := range osm.Len() {
		osmVals = append(osmVals, osm.Row(i)[1:]...)
	}
	tables := []struct {
		name string
		vals []float64
	}{
		{"osm", osmVals},
		{"airline", coax.GenerateAirline(coax.DefaultAirlineConfig(1000)).Data},
	}
	formatters := []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"strconv", appendFloatStrconv},
		{"schubfach", appendFloat},
	}
	for _, tab := range tables {
		for _, fm := range formatters {
			b.Run(tab.name+"/"+fm.name, func(b *testing.B) {
				buf := make([]byte, 0, 64)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = fm.fn(buf[:0], tab.vals[i%len(tab.vals)])
				}
			})
		}
	}
}
