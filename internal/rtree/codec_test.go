package rtree

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// encode writes rt in the stored layout Decode reads — the payload of the
// R-tree outlier sections of old snapshots; the package itself has no
// writer.
func encode(w *binio.Writer, rt *RTree) {
	w.Int(rt.cfg.MaxEntries)
	w.Int((rt.cfg.MaxEntries + 1) / 2)
	w.Int(rt.dims)
	w.Int(rt.n)
	w.Int(rt.height)
	encodeNode(w, rt.root, rt.dims)
}

func encodeNode(w *binio.Writer, nd *node, dims int) {
	w.Bool(nd.leaf)
	if nd.leaf {
		rows := make([]float64, 0, len(nd.entries)*dims)
		for i := range nd.entries {
			rows = append(rows, nd.entries[i].min...)
		}
		w.Float64s(rows)
		return
	}
	w.Uint64(uint64(len(nd.entries)))
	for i := range nd.entries {
		encodeNode(w, nd.entries[i].child, dims)
	}
}

func codecTable(n, dims int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]string, dims)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	t := dataset.NewTable(cols)
	row := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range row {
			row[d] = rng.Float64() * 100
		}
		t.Append(row)
	}
	return t
}

func TestCodecRoundTrip(t *testing.T) {
	tab := codecTable(3000, 3, 1)
	rt, err := Bulk(tab, Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := binio.NewWriter()
	encode(w, rt)
	r := binio.NewReader(w.Bytes())
	got, err := Decode(r)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got.Len() != rt.Len() || got.Dims() != rt.Dims() || got.Height() != rt.Height() || got.NumNodes() != rt.NumNodes() {
		t.Fatalf("shape mismatch: len %d/%d height %d/%d nodes %d/%d",
			got.Len(), rt.Len(), got.Height(), rt.Height(), got.NumNodes(), rt.NumNodes())
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 50; q++ {
		r := index.Full(3)
		for d := 0; d < 3; d++ {
			a, b := rng.Float64()*100, rng.Float64()*100
			if a > b {
				a, b = b, a
			}
			r.Min[d], r.Max[d] = a, b
		}
		if w, g := index.Count(rt, r), index.Count(got, r); w != g {
			t.Fatalf("query %d: %d != %d", q, w, g)
		}
	}
}

func TestCodecEmptyTree(t *testing.T) {
	rt, err := Bulk(dataset.NewTable([]string{"a", "b"}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := binio.NewWriter()
	encode(w, rt)
	got, err := Decode(binio.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != 0 || got.Height() != 1 {
		t.Fatalf("empty tree decoded to len %d height %d", got.Len(), got.Height())
	}
}

// TestCodecRejectsHugeCounts hand-crafts headers with absurd capacities and
// child counts: Decode must error before attempting the implied allocation.
func TestCodecRejectsHugeCounts(t *testing.T) {
	huge := binio.NewWriter()
	huge.Int(1 << 62) // MaxEntries
	huge.Int(0)       // MinEntries (defaulted)
	huge.Int(2)       // dims
	huge.Int(0)       // n
	huge.Int(2)       // height
	huge.Bool(false)  // internal root
	huge.Uint64(1 << 62)
	if _, err := Decode(binio.NewReader(huge.Bytes())); err == nil {
		t.Fatal("huge MaxEntries accepted")
	}

	manyChildren := binio.NewWriter()
	manyChildren.Int(1 << 19) // MaxEntries: passes the capacity cap
	manyChildren.Int(0)
	manyChildren.Int(2)
	manyChildren.Int(0)
	manyChildren.Int(2)
	manyChildren.Bool(false)
	manyChildren.Uint64(1 << 18) // children far beyond the remaining bytes
	if _, err := Decode(binio.NewReader(manyChildren.Bytes())); err == nil {
		t.Fatal("child count beyond payload accepted")
	}

	badMin := binio.NewWriter()
	badMin.Int(8) // MaxEntries
	badMin.Int(6) // MinEntries beyond M/2+1
	badMin.Int(2)
	badMin.Int(0)
	badMin.Int(1)
	badMin.Bool(true)
	badMin.Float64s(nil)
	if _, err := Decode(binio.NewReader(badMin.Bytes())); err == nil {
		t.Fatal("MinEntries beyond M/2+1 accepted")
	}
}

func TestCodecRejectsCorruptStructure(t *testing.T) {
	tab := codecTable(200, 2, 3)
	rt, err := Bulk(tab, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*RTree){
		"row count": func(m *RTree) { m.n++ },
		"height":    func(m *RTree) { m.height++ },
		"capacity":  func(m *RTree) { m.cfg.MaxEntries = 2 },
	} {
		clone := *rt
		mutate(&clone)
		w := binio.NewWriter()
		encode(w, &clone)
		if _, err := Decode(binio.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: Decode accepted corrupt structure", name)
		}
	}
}
