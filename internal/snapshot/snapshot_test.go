package snapshot_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/snapshot"
	"github.com/coax-index/coax/internal/workload"
)

// The reader is held to files written by the last encoder of formats 1 and
// 2, committed under testdata/ — not to an encoder rebuilt in test code.
// They were made with that encoder (internal/snapshot's EncodeSharded and
// Encode, since deleted) by a throwaway program:
//
//	osm600-2shard.v2 (31 758 B): shard.Build(GenerateOSM(DefaultOSMConfig(600)),
//	  core.DefaultOptions(), {NumShards: 2, Partition: ByRange, Column: -1,
//	  Workers: 1}); RebuildShard(1); Delete(tab.Row(30*i)) for i < 20; Insert
//	  the 5 rows of GenerateOSM with DefaultOSMConfig(5) and Seed 4242 (all to
//	  shard 0's primary overflow pages); EncodeSharded.
//	osm-rtree.v1 (24 972 B): core.Build(GenerateOSM(DefaultOSMConfig(600)),
//	  DefaultOptions with OutlierKind OutlierRTree); Encode; then cut to
//	  version 1: the trailing "life" and "cols" sections dropped, the header
//	  patched to version 1 and 4 sections.
//
// Each fixture's digest is the SHA-256 of its live rows, sorted by bit
// pattern, as little-endian float64 bits; it was recorded from the legacy
// decode before the encoders were deleted.
var fixtures = []struct {
	name, file string
	live       int
	tombstones int
	epochs     []uint64
	digest     string
}{
	{"osm/grid", "testdata/osm600-2shard.v2", 585, 20, []uint64{0, 1}, "f68b6cb7c3f0296e14f29905ec37e1f8cba7b7225a402ada4017434df40ea308"},
	{"osm/rtree", "testdata/osm-rtree.v1", 600, 0, []uint64{0}, "7944b13b99b62323a5b4646fcd18694bcef090650514604aeb9a2c00d31596c9"},
}

func readFixture(t testing.TB, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeFixture(t testing.TB, file string) *shard.Sharded {
	t.Helper()
	s, err := snapshot.Decode(readFixture(t, file))
	if err != nil {
		t.Fatalf("Decode(%s): %v", file, err)
	}
	return s
}

// convert rewrites a legacy-decoded index as v3, the way coaxstore convert
// does, and opens the result.
func convert(t testing.TB, s *shard.Sharded, compress bool) *shard.Sharded {
	t.Helper()
	blob, err := mmapsnap.EncodeSharded(s, mmapsnap.Options{Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := mmapsnap.OpenBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sn.PageErr(); err != nil {
			t.Errorf("page error: %v", err)
		}
	})
	return sn.Sharded()
}

// sortedRows returns the rows of r in idx, sorted by bit pattern.
func sortedRows(idx index.Interface, r index.Rect) [][]float64 {
	rows := index.Collect(idx, r)
	slices.SortFunc(rows, func(a, b []float64) int {
		for k := range a {
			if c := cmp.Compare(math.Float64bits(a[k]), math.Float64bits(b[k])); c != 0 {
				return c
			}
		}
		return 0
	})
	return rows
}

func digest(idx index.Interface) string {
	h := sha256.New()
	for _, row := range sortedRows(idx, index.Full(idx.Dims())) {
		for _, v := range row {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// queries is 30 random rectangles over the rows of idx plus the full one.
func queries(idx index.Interface) []index.Rect {
	tab := dataset.NewTable(make([]string, idx.Dims()))
	for _, row := range index.Collect(idx, index.Full(idx.Dims())) {
		tab.Append(row)
	}
	rng := rand.New(rand.NewSource(61))
	qs := []index.Rect{index.Full(idx.Dims())}
	for range 30 {
		qs = append(qs, workload.RandRect(rng, tab))
	}
	return qs
}

func requireSameRows(t *testing.T, want, got index.Interface, qs []index.Rect) {
	t.Helper()
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for qi, r := range qs {
		if w, g := sortedRows(want, r), sortedRows(got, r); !slices.EqualFunc(w, g, sameBits) {
			t.Fatalf("query %d: %d rows differ from the legacy decode's %d", qi, len(g), len(w))
		}
	}
}

// TestRoundTrip converts each fixture to v3, raw and compressed: every
// answer is bit-identical to the legacy decode, and the rows hash to the
// digest recorded before the encoders went.
func TestRoundTrip(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			legacy := decodeFixture(t, fx.file)
			if got := digest(legacy); got != fx.digest {
				t.Fatalf("legacy decode digest %s, want %s", got, fx.digest)
			}
			qs := queries(legacy)
			for _, compress := range []bool{false, true} {
				v3 := convert(t, legacy, compress)
				requireSameRows(t, legacy, v3, qs)
				if got := digest(v3); got != fx.digest {
					t.Fatalf("compress=%v: converted digest %s, want %s", compress, got, fx.digest)
				}
			}
		})
	}
}

// TestLifecycleSectionRoundTrip: live rows, tombstones and epochs survive
// the conversion — the v2 file resumes mid-lifecycle, the v1 file (no
// "life" section) starts a fresh one.
func TestLifecycleSectionRoundTrip(t *testing.T) {
	for _, fx := range fixtures {
		name := strings.TrimPrefix(fx.name, "osm/")
		t.Run(name, func(t *testing.T) {
			legacy := decodeFixture(t, fx.file)
			want := legacy.LifecycleStats()
			if want.LiveRows != fx.live || want.Tombstones != fx.tombstones || !slices.Equal(legacy.Epochs(), fx.epochs) {
				t.Fatalf("legacy decode: %d live, %d tombstones, epochs %v; want %d, %d, %v",
					want.LiveRows, want.Tombstones, legacy.Epochs(), fx.live, fx.tombstones, fx.epochs)
			}
			v3 := convert(t, legacy, false)
			if got := v3.LifecycleStats(); !reflect.DeepEqual(want, got) {
				t.Fatalf("lifecycle changed in conversion:\nlegacy    %+v\nconverted %+v", want, got)
			}
			if !slices.Equal(v3.Epochs(), fx.epochs) {
				t.Fatalf("converted epochs %v, want %v", v3.Epochs(), fx.epochs)
			}
		})
	}
}

// TestShardedLifecycleRoundTrip: each shard of the v2 fixture keeps its own
// lifecycle — shard 1 was rebuilt before the mutations, shard 0 took the
// inserts — through the conversion.
func TestShardedLifecycleRoundTrip(t *testing.T) {
	legacy := decodeFixture(t, fixtures[0].file)
	v3 := convert(t, legacy, true)
	want, got := legacy.ShardLifecycleStats(), v3.ShardLifecycleStats()
	if len(want) != 2 || want[0].Inserts != 5 || want[1].Epoch != 1 {
		t.Fatalf("legacy per-shard lifecycle %+v: want 5 inserts on shard 0 and epoch 1 on shard 1", want)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("per-shard lifecycle changed:\nlegacy    %+v\nconverted %+v", want, got)
	}
}

// TestRoundTripAfterInserts: the v2 fixture's inserted rows live in
// overflow pages and its deleted rows in tombstone slots; both are carried
// into the converted primary grids.
func TestRoundTripAfterInserts(t *testing.T) {
	legacy := decodeFixture(t, fixtures[0].file)
	v3 := convert(t, legacy, false)
	pages := func(s *shard.Sharded) (inserted, dead []int) {
		for i := range s.NumShards() {
			s.WithShard(i, func(c *core.COAX) error {
				inserted = append(inserted, c.Primary().Inserted())
				dead = append(dead, c.Primary().Tombstones())
				return nil
			})
		}
		return inserted, dead
	}
	wi, wd := pages(legacy)
	gi, gd := pages(v3)
	if !slices.Equal(wi, []int{5, 0}) || !slices.Equal(wd, []int{10, 10}) {
		t.Fatalf("legacy primaries: %v overflow rows, %v tombstones; want [5 0] and [10 10]", wi, wd)
	}
	if !slices.Equal(wi, gi) || !slices.Equal(wd, gd) {
		t.Fatalf("converted primaries: %v overflow rows, %v tombstones; legacy %v, %v", gi, gd, wi, wd)
	}
}

// TestShardedRoundTrip: the routing state — partition, range column, cut
// points — survives the conversion, so a row inserted into both indexes
// lands in the same shard.
func TestShardedRoundTrip(t *testing.T) {
	legacy := decodeFixture(t, fixtures[0].file)
	v3 := convert(t, legacy, false)
	if v3.NumShards() != 2 || v3.Partition() != shard.ByRange || v3.RangeColumn() != legacy.RangeColumn() ||
		!slices.Equal(v3.Cuts(), legacy.Cuts()) {
		t.Fatalf("routing changed: %d %v shards on column %d cut at %v; legacy %d %v on %d at %v",
			v3.NumShards(), v3.Partition(), v3.RangeColumn(), v3.Cuts(),
			legacy.NumShards(), legacy.Partition(), legacy.RangeColumn(), legacy.Cuts())
	}
	row := slices.Clone(index.Collect(legacy, index.Full(legacy.Dims()))[0])
	for _, s := range []*shard.Sharded{legacy, v3} {
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	want, got := legacy.LifecycleStats(), v3.LifecycleStats()
	if want.Inserts != got.Inserts || !slices.Equal(lives(legacy), lives(v3)) {
		t.Fatalf("insert routed differently: live rows per shard %v, legacy %v", lives(v3), lives(legacy))
	}
}

func lives(s *shard.Sharded) []int {
	var out []int
	for _, st := range s.ShardLifecycleStats() {
		out = append(out, st.LiveRows)
	}
	return out
}

// TestVersion1Compat: the v1 fixture opens with a fresh lifecycle and, once
// converted, takes inserts and rebuilds like any index.
func TestVersion1Compat(t *testing.T) {
	legacy := decodeFixture(t, fixtures[1].file)
	if st := legacy.LifecycleStats(); st.Mutations() != 0 || st.Tombstones != 0 || st.Epoch != 0 {
		t.Fatalf("v1 file did not start a fresh lifecycle: %+v", st)
	}
	if cols := legacy.Columns(); slices.ContainsFunc(cols, func(c string) bool { return c != "" }) {
		t.Fatalf("v1 file has no names section, got columns %q", cols)
	}
	v3 := convert(t, legacy, false)
	row := slices.Clone(index.Collect(v3, index.Full(v3.Dims()))[0])
	if err := v3.Insert(row); err != nil {
		t.Fatalf("insert after conversion: %v", err)
	}
	if _, err := v3.RebuildAll(); err != nil {
		t.Fatalf("rebuild after conversion: %v", err)
	}
	if v3.Len() != fixtures[1].live+1 {
		t.Fatalf("%d rows after insert and rebuild, want %d", v3.Len(), fixtures[1].live+1)
	}
}

// TestConcurrentReaders: a converted fixture serves parallel readers the
// counts of the legacy decode.
func TestConcurrentReaders(t *testing.T) {
	legacy := decodeFixture(t, fixtures[0].file)
	v3 := convert(t, legacy, true)
	qs := queries(legacy)
	want := make([]int, len(qs))
	for i, q := range qs {
		want[i] = index.Count(legacy, q)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				if got := index.Count(v3, q); got != want[i] {
					t.Errorf("query %d: %d rows, want %d", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeTruncated: every prefix of each fixture at a prime stride, and
// one byte short, fails — never panics, never succeeds.
func TestDecodeTruncated(t *testing.T) {
	for _, fx := range fixtures {
		blob := readFixture(t, fx.file)
		for n := 0; n < len(blob); n += 509 {
			if _, err := snapshot.Decode(blob[:n]); err == nil {
				t.Fatalf("%s: %d/%d-byte prefix decoded", fx.file, n, len(blob))
			}
		}
		if _, err := snapshot.Decode(blob[:len(blob)-1]); !errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("%s: one byte short: %v, want ErrTruncated", fx.file, err)
		}
	}
}

// TestDecodeCorrupt flips bytes throughout each fixture: CRC-32C catches
// every payload flip and the frame checks every header flip.
func TestDecodeCorrupt(t *testing.T) {
	for _, fx := range fixtures {
		blob := readFixture(t, fx.file)
		for p := 0; p < len(blob); p += 251 {
			mutated := bytes.Clone(blob)
			mutated[p] ^= 0xFF
			if _, err := snapshot.Decode(mutated); err == nil {
				t.Fatalf("%s: decoded with byte %d flipped", fx.file, p)
			}
		}
	}
}

// TestDecodeBadCRC flips one byte of the first section's payload (16-byte
// header, 12-byte section header) and requires ErrChecksum.
func TestDecodeBadCRC(t *testing.T) {
	for _, fx := range fixtures {
		blob := readFixture(t, fx.file)
		blob[28] ^= 0x01
		if _, err := snapshot.Decode(blob); !errors.Is(err, snapshot.ErrChecksum) {
			t.Fatalf("%s: %v, want ErrChecksum", fx.file, err)
		}
	}
}

func TestDecodeVersionMismatch(t *testing.T) {
	for _, fx := range fixtures {
		for _, v := range []uint32{0, 3} {
			blob := readFixture(t, fx.file)
			binary.LittleEndian.PutUint32(blob[8:], v)
			if _, err := snapshot.Decode(blob); !errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("%s as version %d: %v, want ErrVersion", fx.file, v, err)
			}
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	blob := readFixture(t, fixtures[0].file)
	copy(blob, "NOTACOAX")
	if _, err := snapshot.Decode(blob); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// TestShardedDecodeCorruption: a shard layout that checksums but lies — no
// shards, or dims no shard has — fails with the reader's own error.
func TestShardedDecodeCorruption(t *testing.T) {
	for _, tc := range []struct {
		field func(layout []byte) []byte // the 8 bytes to overwrite
		value uint64
		want  string
	}{
		{func(l []byte) []byte { return l[:8] }, 0, "shard count 0 out of range"},
		{func(l []byte) []byte { return l[len(l)-8:] }, 99, "layout says 99"},
	} {
		blob := readFixture(t, fixtures[0].file)
		if id := string(blob[16:20]); id != "shmt" {
			t.Fatalf("first section %q, want the shard layout", id)
		}
		n := int(binary.LittleEndian.Uint64(blob[20:28]))
		layout := blob[28 : 28+n]
		binary.LittleEndian.PutUint64(tc.field(layout), tc.value)
		binary.LittleEndian.PutUint32(blob[28+n:], crc32.Checksum(layout, crc32.MakeTable(crc32.Castagnoli)))
		if _, err := snapshot.Decode(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Decode error %v, want %q", err, tc.want)
		}
	}
}
