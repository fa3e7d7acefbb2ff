package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectContains(t *testing.T) {
	r := NewRect([]float64{0, -1}, []float64{10, 1})
	cases := []struct {
		row  []float64
		want bool
	}{
		{[]float64{5, 0}, true},
		{[]float64{0, -1}, true}, // inclusive lower
		{[]float64{10, 1}, true}, // inclusive upper
		{[]float64{-0.1, 0}, false},
		{[]float64{10.1, 0}, false},
		{[]float64{5, 1.5}, false},
		{[]float64{5, -1.5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.row); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.row, got, c.want)
		}
	}
}

func TestRectContainsIgnoresTrailingAttributes(t *testing.T) {
	r := NewRect([]float64{0}, []float64{1})
	if !r.Contains([]float64{0.5, 999}) {
		t.Error("Contains should only examine the first Dims() values")
	}
}

func TestFullMatchesEverything(t *testing.T) {
	r := Full(3)
	rows := [][]float64{
		{0, 0, 0},
		{math.MaxFloat64, -math.MaxFloat64, 1},
		{-1e300, 1e300, 0},
	}
	for _, row := range rows {
		if !r.Contains(row) {
			t.Errorf("Full(3) should contain %v", row)
		}
	}
}

func TestPointRect(t *testing.T) {
	p := []float64{1, 2, 3}
	r := Point(p)
	if !r.IsPoint() {
		t.Error("Point() should produce IsPoint() == true")
	}
	if !r.Contains(p) {
		t.Error("point rect must contain its own point")
	}
	if r.Contains([]float64{1, 2, 3.0001}) {
		t.Error("point rect must not contain a different point")
	}
	// Mutating the source must not affect the rect (copied).
	p[0] = 99
	if r.Min[0] != 1 {
		t.Error("Point must copy its input")
	}
}

func TestEmptyAndIntersect(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{5, 5})
	b := NewRect([]float64{3, 3}, []float64{8, 8})
	got := a.Intersect(b)
	want := NewRect([]float64{3, 3}, []float64{5, 5})
	for i := range want.Min {
		if got.Min[i] != want.Min[i] || got.Max[i] != want.Max[i] {
			t.Fatalf("Intersect = %v, want %v", got, want)
		}
	}
	c := NewRect([]float64{6, 0}, []float64{9, 5})
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be Empty")
	}
	if a.Empty() {
		t.Error("a valid rect must not be Empty")
	}
}

func TestOverlapsAndContainsRect(t *testing.T) {
	a := NewRect([]float64{0, 0}, []float64{10, 10})
	inner := NewRect([]float64{2, 2}, []float64{3, 3})
	edge := NewRect([]float64{10, 10}, []float64{12, 12})
	outside := NewRect([]float64{11, 11}, []float64{12, 12})

	if !a.Overlaps(inner) || !a.ContainsRect(inner) {
		t.Error("inner rect should overlap and be contained")
	}
	if !a.Overlaps(edge) {
		t.Error("touching rects overlap (inclusive bounds)")
	}
	if a.ContainsRect(edge) {
		t.Error("edge rect extends outside a")
	}
	if a.Overlaps(outside) {
		t.Error("disjoint rects must not overlap")
	}
}

func TestValidate(t *testing.T) {
	if err := NewRect([]float64{0}, []float64{1}).Validate(); err != nil {
		t.Errorf("valid rect rejected: %v", err)
	}
	if err := (Rect{}).Validate(); err == nil {
		t.Error("zero-dim rect must fail validation")
	}
	if err := (Rect{Min: []float64{0}, Max: []float64{0, 1}}).Validate(); err == nil {
		t.Error("length mismatch must fail validation")
	}
	if err := NewRect([]float64{math.NaN()}, []float64{1}).Validate(); err == nil {
		t.Error("NaN bound must fail validation")
	}
}

func TestRectString(t *testing.T) {
	s := NewRect([]float64{0, 1}, []float64{2, 3}).String()
	if s != "{[0,2], [1,3]}" {
		t.Errorf("String() = %q", s)
	}
}

// Property: Intersect(a, b).Contains(p) ⟺ a.Contains(p) && b.Contains(p).
func TestIntersectSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(4)
		a := randRect(r, dims)
		b := randRect(r, dims)
		both := a.Intersect(b)
		for trial := 0; trial < 50; trial++ {
			p := make([]float64, dims)
			for d := range p {
				p[d] = r.Float64()*4 - 2
			}
			want := a.Contains(p) && b.Contains(p)
			if both.Contains(p) != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randRect(r *rand.Rand, dims int) Rect {
	min := make([]float64, dims)
	max := make([]float64, dims)
	for d := 0; d < dims; d++ {
		a := r.Float64()*4 - 2
		b := r.Float64()*4 - 2
		if a > b {
			a, b = b, a
		}
		min[d], max[d] = a, b
	}
	return Rect{Min: min, Max: max}
}

func TestCountAndCollect(t *testing.T) {
	idx := fakeIndex{rows: [][]float64{{1}, {2}, {3}}}
	r := NewRect([]float64{1.5}, []float64{3})
	if got := Count(idx, r); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	rows := Collect(idx, r)
	if len(rows) != 2 || rows[0][0] != 2 || rows[1][0] != 3 {
		t.Errorf("Collect = %v", rows)
	}
}

type fakeIndex struct{ rows [][]float64 }

func (f fakeIndex) Name() string          { return "fake" }
func (f fakeIndex) Len() int              { return len(f.rows) }
func (f fakeIndex) Dims() int             { return 1 }
func (f fakeIndex) MemoryOverhead() int64 { return 0 }
func (f fakeIndex) Scan(r Rect, yield Yield, probe *Probe) bool {
	for _, row := range f.rows {
		if r.Contains(row) {
			if probe != nil {
				probe.Matched++
			}
			if !yield(row) {
				return false
			}
		}
	}
	return true
}

// TestSelectRectMatchesContains: bit i of the selection is r.Contains(row i)
// for every window shape — more constrained dimensions than RectSel keeps
// inline, none at all, NaN values, and row counts off the word boundary —
// with the tail bits left zero.
func TestSelectRectMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		dims, rows := 1+rng.Intn(12), rng.Intn(200)
		page := make([]float64, dims*rows)
		for i := range page {
			if page[i] = rng.Float64()*4 - 2; rng.Intn(50) == 0 {
				page[i] = math.NaN()
			}
		}
		r := randRect(rng, dims)
		for d := 0; d < dims; d++ {
			if rng.Intn(3) == 0 || trial%10 == 0 {
				r.Min[d], r.Max[d] = math.Inf(-1), math.Inf(1)
			}
		}
		sel := make([]uint64, BatchWords(rows)+1)
		sel[len(sel)-1] = 0xdead // past the window: must stay untouched
		SelectRect(page, dims, rows, r, sel)
		for i := 0; i < BatchWords(rows)*64; i++ {
			want := i < rows && r.Contains(page[i*dims:(i+1)*dims])
			if got := sel[i>>6]&(1<<uint(i&63)) != 0; got != want {
				t.Fatalf("trial %d (%d dims, %d rows): bit %d is %v, Contains says %v", trial, dims, rows, i, got, want)
			}
		}
		if sel[len(sel)-1] != 0xdead {
			t.Fatalf("trial %d: SelectRect wrote past BatchWords(rows)", trial)
		}
	}
}
