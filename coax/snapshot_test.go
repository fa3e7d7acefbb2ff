package coax_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/coax-index/coax/coax"
)

// TestSaveLoadFile exercises the public persistence API end to end: a
// snapshot written by SaveShardedFile and opened by OpenFile answers queries
// identically to the index that was saved.
func TestSaveLoadFile(t *testing.T) {
	tab := coax.GenerateAirline(coax.DefaultAirlineConfig(15000))
	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 5000
	idx, err := coax.NewBuilder(coax.TableSchema(tab), opt).Build(coax.NewTableSource(tab, 0))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	path := filepath.Join(t.TempDir(), "airline.coax")
	if err := coax.SaveShardedFile(path, idx); err != nil {
		t.Fatalf("SaveShardedFile: %v", err)
	}
	sn, err := coax.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
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

// TestSaveFilePreservesMode ensures replacing a snapshot keeps the file
// mode readers depend on instead of CreateTemp's private 0600.
func TestSaveFilePreservesMode(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(500))
	opt := coax.DefaultOptions()
	opt.SoftFD.SampleCount = 500
	idx := build(t, tab, opt, 1)
	path := filepath.Join(t.TempDir(), "idx.coax")
	if err := coax.SaveShardedFile(path, idx); err != nil {
		t.Fatalf("SaveShardedFile: %v", err)
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o644 {
		t.Fatalf("fresh snapshot mode %v, want 0644", fi.Mode().Perm())
	}
	if err := os.Chmod(path, 0o664); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFile(path, idx); err != nil {
		t.Fatalf("SaveShardedFile over existing: %v", err)
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o664 {
		t.Fatalf("replaced snapshot mode %v, want preserved 0664", fi.Mode().Perm())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := coax.OpenFile(filepath.Join(t.TempDir(), "absent.coax")); err == nil {
		t.Fatal("OpenFile of missing path succeeded")
	}
}

// TestOpenFileReportsDecodeError: a damaged v2 file fails to open with its
// decoder's own error. Here a 2-shard file's layout section, its CRC intact,
// claims 99 dims.
func TestOpenFileReportsDecodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := coax.SaveSharded(&buf, build(t, coax.GenerateOSM(coax.DefaultOSMConfig(2000)), coax.DefaultOptions(), 2)); err != nil {
		t.Fatal(err)
	}
	// The layout is the first section after the 16-byte header: id, payload
	// length, payload — ending in the dims — and CRC.
	blob := buf.Bytes()
	if id := string(blob[16:20]); id != "shmt" {
		t.Fatalf("first section %q, want the shard layout", id)
	}
	n := int(binary.LittleEndian.Uint64(blob[20:28]))
	layout := blob[28 : 28+n]
	binary.LittleEndian.PutUint64(layout[n-8:], 99)
	binary.LittleEndian.PutUint32(blob[28+n:], crc32.Checksum(layout, crc32.MakeTable(crc32.Castagnoli)))
	path := filepath.Join(t.TempDir(), "damaged.coax")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := coax.OpenFile(path); err == nil || !strings.Contains(err.Error(), "layout says 99") {
		t.Fatalf("OpenFile error = %v, want the layout's dims mismatch", err)
	}
}

// TestServingSizesWorkers: the fan-out pool of an opened snapshot is the one
// Serving asks for, on v2 and v3 files alike.
func TestServingSizesWorkers(t *testing.T) {
	idx := build(t, coax.GenerateOSM(coax.DefaultOSMConfig(4000)), coax.DefaultOptions(), 4)
	dir := t.TempDir()
	v2, v3 := filepath.Join(dir, "idx.v2"), filepath.Join(dir, "idx.v3")
	if err := coax.SaveShardedFile(v2, idx); err != nil {
		t.Fatal(err)
	}
	if err := coax.SaveShardedFileV3(v3, idx, true); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v2, v3} {
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
