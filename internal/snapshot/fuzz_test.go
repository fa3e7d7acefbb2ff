package snapshot_test

import (
	"encoding/binary"
	"testing"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/snapshot"
)

// FuzzSnapshotDecode drives Decode with arbitrary bytes: anything malformed
// must return an error — never panic, hang, or yield an index that panics
// when queried. The seeds are the committed fixtures (a two-shard v2 file
// with tombstones and overflow pages, a single-index v1 R-tree file) and
// truncated, bit-flipped and re-versioned variants of each, so the fuzzer
// starts inside the format rather than fighting the magic number.
func FuzzSnapshotDecode(f *testing.F) {
	for _, fx := range fixtures {
		blob := readFixture(f, fx.file)
		f.Add(blob)
		for _, n := range []int{16, 28, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:n])
		}
		for _, p := range []int{12, 20, len(blob) / 3, len(blob) - 3} {
			mut := append([]byte(nil), blob...)
			mut[p] ^= 0x40
			f.Add(mut)
		}
		v3 := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(v3[8:], 3)
		f.Add(v3)
	}
	f.Add([]byte{})
	f.Add([]byte("COAXSNAP"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := snapshot.Decode(data); err == nil {
			exerciseQueries(s)
		}
	})
}

// exerciseQueries runs the probe paths of a decoded index; a decode that
// validated must answer without panicking.
func exerciseQueries(idx index.Interface) {
	dims := idx.Dims()
	index.Count(idx, index.Full(dims))
	r := index.Full(dims)
	for d := 0; d < dims; d++ {
		r.Min[d], r.Max[d] = -1, 1
	}
	index.Count(idx, r)
	index.Count(idx, index.Point(make([]float64, dims)))
}
