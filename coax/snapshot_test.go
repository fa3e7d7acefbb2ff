package coax_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/mmapsnap"
)

// TestSaveLoadFile exercises the public persistence API end to end: a
// snapshot written by SaveShardedFileV3 and opened by OpenFile answers
// queries identically to the index that was saved.
func TestSaveLoadFile(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(15000))
	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 5000
	idx, err := coax.NewBuilder(coax.TableSchema(tab), opt).Build(coax.NewTableSource(tab, 0))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	path := filepath.Join(t.TempDir(), "airline.coax")
	if err := coax.SaveShardedFileV3(path, idx, false); err != nil {
		t.Fatalf("SaveShardedFileV3: %v", err)
	}
	sn, err := coax.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer sn.Close()
	loaded := serving(t, sn)

	queries := []coax.Rect{coax.FullRect(tab.Dims())}
	q := coax.FullRect(tab.Dims())
	q.Min[1], q.Max[1] = 60, 120 // elapsed: a dependent column → translated probe
	queries = append(queries, q)
	for i := 0; i < 20; i++ {
		queries = append(queries, coax.PointQuery(tab.Row(i*37)))
	}
	for qi, q := range queries {
		if b, l := count(t, idx, q), count(t, loaded, q); b != l {
			t.Fatalf("query %d: built %d, loaded %d", qi, b, l)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := coax.OpenFile(filepath.Join(t.TempDir(), "absent.coax")); err == nil {
		t.Fatal("OpenFile of missing path succeeded")
	}
}

// TestOpenFileReportsDecodeError: a damaged file fails to open with its
// decoder's own error — here a 2-shard file whose layout section, its CRC
// intact, claims 99 dims — and a file of format version 1 or 2 fails with
// mmapsnap.ErrVersion, its version, and the command that converts it.
func TestOpenFileReportsDecodeError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "damaged.coax")
	if err := coax.SaveShardedFileV3(path, build(t, coax.GenerateOSM(coax.DefaultOSMConfig(2000)), coax.DefaultOptions(), 2), false); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The layout is the first table-of-contents entry after the 16-byte
	// header: id, flags, offset, length, CRC. Its payload ends in the dims.
	toc := blob[16:48]
	if id := string(toc[:4]); id != "shmt" {
		t.Fatalf("first section %q, want the shard layout", id)
	}
	off, n := binary.LittleEndian.Uint64(toc[8:]), binary.LittleEndian.Uint64(toc[16:])
	layout := blob[off : off+n]
	binary.LittleEndian.PutUint64(layout[n-8:], 99)
	binary.LittleEndian.PutUint32(toc[24:], crc32.Checksum(layout, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := coax.OpenFile(path); err == nil || !strings.Contains(err.Error(), "layout says 99") {
		t.Fatalf("OpenFile error = %v, want the layout's dims mismatch", err)
	}

	for file, version := range map[string]string{"osm600-2shard.v2": "version 2", "osm-rtree.v1": "version 1"} {
		_, err := coax.OpenFile(filepath.Join("..", "internal", "snapshot", "testdata", file))
		if !errors.Is(err, mmapsnap.ErrVersion) || !strings.Contains(err.Error(), version) || !strings.Contains(err.Error(), "coaxstore convert") {
			t.Errorf("OpenFile(%s) error = %v, want ErrVersion naming %s and coaxstore convert", file, err, version)
		}
	}
}

// TestServingSizesWorkers: the fan-out pool of an opened snapshot is the one
// Serving asks for, on raw and compressed files alike.
func TestServingSizesWorkers(t *testing.T) {
	idx := build(t, coax.GenerateOSM(coax.DefaultOSMConfig(4000)), coax.DefaultOptions(), 4)
	dir := t.TempDir()
	raw, packed := filepath.Join(dir, "idx.v3"), filepath.Join(dir, "idx.v3c")
	if err := coax.SaveShardedFileV3(raw, idx, false); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFileV3(packed, idx, true); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{raw, packed} {
		sn, err := coax.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		one, err := sn.Serving(1)
		if err != nil {
			t.Fatal(err)
		}
		if st := one.BuildStats(); st.Workers != 1 || st.Shards != 4 {
			t.Errorf("%s: Serving(1) runs %d workers over %d shards, want 1 over 4", path, st.Workers, st.Shards)
		}
		// The pool may be resized while queries run on it.
		var wg sync.WaitGroup
		for w := 1; w <= 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n, err := coax.NewQuery().Count(one); err != nil || n != idx.Len() {
					t.Errorf("%s: counts %d rows (%v), want %d", path, n, err, idx.Len())
				}
			}()
			sn.Serving(w)
		}
		wg.Wait()
		sn.Close()
	}
}
