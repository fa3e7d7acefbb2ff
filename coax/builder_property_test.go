package coax_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/mmapsnap"
)

// snapshotBytes serialises idx as the v3 file SaveShardedFileV3 writes.
func snapshotBytes(t *testing.T, idx *coax.Index) []byte {
	t.Helper()
	blob, err := mmapsnap.EncodeSharded(idx, mmapsnap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// randRect builds a random query rectangle from data values of tab.
func randRect(rng *rand.Rand, tab *coax.Table) coax.Rect {
	r := coax.FullRect(tab.Dims())
	for d := 0; d < tab.Dims(); d++ {
		if rng.Float64() < 0.4 {
			continue
		}
		a := tab.Row(rng.Intn(tab.Len()))[d]
		b := tab.Row(rng.Intn(tab.Len()))[d]
		if a > b {
			a, b = b, a
		}
		r.Min[d], r.Max[d] = a, b
	}
	return r
}

// TestPropertyStreamingEquivalentToLegacy is the satellite property test:
// across datasets × outlier kinds × one or three shards, (1) every
// full-sample Builder path — whole-input reservoir, whole-input CSV prefix —
// produces a byte-identical snapshot to the full-scan in-memory build, and
// (2) sampled streaming builds (models learned on a strict sample) answer
// every query identically to it.
func TestPropertyStreamingEquivalentToLegacy(t *testing.T) {
	type dataset struct {
		name string
		tab  *coax.Table
	}
	datasets := []dataset{
		{"osm", coax.GenerateOSM(coax.DefaultOSMConfig(8000))},
		{"airline", coax.GenerateAirline(coax.DefaultAirlineConfig(8000))},
	}

	for _, ds := range datasets {
		schema := coax.TableSchema(ds.tab)
		for _, kind := range []coax.OutlierIndexKind{coax.OutlierGrid, coax.OutlierRTree} {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/%d/%d shards", ds.name, kind, shards)
				opt := coax.DefaultOptions()
				opt.OutlierKind = kind
				so := coax.DefaultShardOptions()
				so.NumShards = shards
				builder := func(sample int, src coax.RowSource) *coax.Index {
					idx, err := coax.NewBuilder(schema, opt).SampleSize(sample).BuildSharded(src, so)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return idx
				}

				full := builder(0, coax.NewTableSource(ds.tab, 0))
				want := snapshotBytes(t, full)

				// Sampled mode whose budget covers the whole input: the
				// reservoir keeps every row in order, so this must be
				// bit-for-bit.
				whole := builder(ds.tab.Len()+1, coax.NewTableSource(ds.tab, 1024))
				if !bytes.Equal(want, snapshotBytes(t, whole)) {
					t.Fatalf("%s: whole-sample builder snapshot differs from full scan", name)
				}

				// Same, through a one-shot CSV stream (prefix path; CSV float
				// formatting round-trips exactly).
				var csvBuf bytes.Buffer
				if err := coax.WriteCSV(&csvBuf, ds.tab); err != nil {
					t.Fatal(err)
				}
				csvSrc, err := coax.NewCSVSource(bytes.NewReader(csvBuf.Bytes()), 512)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, snapshotBytes(t, builder(ds.tab.Len()+1, csvSrc))) {
					t.Fatalf("%s: CSV whole-prefix builder snapshot differs from full scan", name)
				}

				// Strictly sampled streaming: different models are allowed,
				// different answers are not.
				sampled := builder(ds.tab.Len()/8, coax.NewTableSource(ds.tab, 1024))
				rng := rand.New(rand.NewSource(int64(kind)*100 + 7))
				for q := 0; q < 30; q++ {
					r := randRect(rng, ds.tab)
					if !equalRows(sortedCollect(t, full, r), sortedCollect(t, sampled, r)) {
						t.Fatalf("%s: sampled query %d differs", name, q)
					}
				}
			}
		}
	}
}
