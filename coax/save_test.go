package coax

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/coax-index/coax/internal/mmapsnap"
)

// TestSaveInterruptedAtEveryWritePoint holds the save to its contract: a
// save whose output fails after k bytes — k = 0, every 64-byte step, one
// byte short of the file — leaves the file at path byte for byte as it was,
// with its mode, and no temporary file beside it; the save that completes
// replaces the file and keeps the mode an operator gave it. A new file gets
// 0644, not CreateTemp's 0600.
func TestSaveInterruptedAtEveryWritePoint(t *testing.T) {
	snapshot := func(rows int) (*Index, []byte) {
		tab := GenerateOSM(DefaultOSMConfig(rows))
		opt := DefaultOptions()
		opt.SoftFD.SampleCount = rows
		idx, err := NewBuilder(TableSchema(tab), opt).Build(NewTableSource(tab, 0))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := mmapsnap.EncodeSharded(idx, mmapsnap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return idx, blob
	}
	oldIdx, oldBlob := snapshot(400)
	newIdx, newBlob := snapshot(500)

	dir := t.TempDir()
	path := filepath.Join(dir, "idx.coax")
	requireFile := func(when string, blob []byte, mode os.FileMode) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("%s: file at path is %d bytes, not the %d-byte snapshot expected", when, len(got), len(blob))
		}
		if fi, _ := os.Stat(path); fi.Mode().Perm() != mode {
			t.Fatalf("%s: mode %v, want %v", when, fi.Mode().Perm(), mode)
		}
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmp) > 0 {
			t.Fatalf("%s: temporary files left behind: %v", when, tmp)
		}
	}

	if err := SaveShardedFileV3(path, oldIdx, false); err != nil {
		t.Fatal(err)
	}
	requireFile("fresh save", oldBlob, 0o644)
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected write failure")
	var cuts []int
	for k := 0; k < len(newBlob); k += 64 {
		cuts = append(cuts, k)
	}
	cuts = append(cuts, len(newBlob)-1)
	for _, k := range cuts {
		err := atomicWriteFile(path, func(w io.Writer) error {
			if _, err := w.Write(newBlob[:k]); err != nil {
				return err
			}
			return injected
		})
		if !errors.Is(err, injected) {
			t.Fatalf("save failing after %d bytes returned %v", k, err)
		}
		requireFile(fmt.Sprintf("save failing after %d bytes", k), oldBlob, 0o640)
	}

	if err := SaveShardedFileV3(path, newIdx, false); err != nil {
		t.Fatal(err)
	}
	requireFile("completed save", newBlob, 0o640)
}
