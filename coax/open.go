package coax

import (
	"errors"
	"fmt"
	"io"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/shard"
)

// SnapshotVersionV3 is the snapshot format version SaveShardedFileV3 writes
// and OpenFile opens: the page-aligned memory-mapped container (see
// internal/mmapsnap for the layout). Files of versions 1 and 2 are rewritten
// as v3 by `coaxstore convert`.
const SnapshotVersionV3 = mmapsnap.Version

// SaveShardedFileV3 writes idx to path in snapshot format v3: hot sections
// laid out as fixed-width 64-byte-aligned pages that OpenFile can serve
// straight from a memory mapping, without decoding the file onto the heap;
// every shard is a nested page-aligned blob under the one mapping. With
// compress set, each grid cell page is stored columnar (delta/frame-of-
// reference bit-packed) and decoded on every read, only the rows a scan can
// use, with nothing retained.
//
// The write is atomic and durable: the file is written beside path, fsynced,
// renamed over path, and the directory fsynced. Once SaveShardedFileV3
// returns nil, the new file is at path and survives a power loss; until the
// rename, whatever fails, the file that was at path is untouched. Encoding
// takes per-shard read locks, so the index may keep serving while it is
// saved.
func SaveShardedFileV3(path string, idx *Index, compress bool) error {
	blob, err := mmapsnap.EncodeSharded(idx, mmapsnap.Options{Compress: compress})
	if err != nil {
		return err
	}
	return atomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

// Snapshot is an index opened from a v3 snapshot file of either layout —
// a single-index file opens as one shard — and the mapping backing it.
type Snapshot struct {
	idx *Index
	ms  *mmapsnap.Snapshot
}

// Mapped reports whether queries are served from a memory mapping rather
// than an aligned heap copy of the file; false on platforms without mmap
// support.
func (s *Snapshot) Mapped() bool { return s.ms.Mapped() }

// PageErr returns the first corruption detected while reading a compressed
// page, if any — every read re-checks the page (CRC, layout, sort order),
// and the scan path skips a page that fails rather than failing mid-query,
// so a query, Delete, Update or Compact that met one looks like a short
// answer, a missing row or a no-op until this is consulted. The error is
// sticky. Callers that need an up-front guarantee should verify the file
// with `coaxstore info -verify` (or mmapsnap.Verify).
func (s *Snapshot) PageErr() error { return s.ms.PageErr() }

// Close releases the mapping; the index obtained from this snapshot must
// not be used afterwards.
func (s *Snapshot) Close() error { return s.ms.Close() }

// Serving returns the snapshot's index with its query fan-out pool sized to
// workers (one per CPU when workers ≤ 0) — what cmd/coaxserve serves from.
// The error is always nil.
func (s *Snapshot) Serving(workers int) (*Index, error) {
	s.idx.SetWorkers(workers)
	return s.idx, nil
}

// OpenFile opens the v3 snapshot at path and serves it in place from a
// memory mapping (an aligned heap read where mmap is unavailable). A damaged
// file reports the decoder's own error; a file of format version 1 or 2
// fails with an error wrapping mmapsnap.ErrVersion that names `coaxstore
// convert`, which rewrites it as v3.
//
// Opening is O(directory), not O(rows): startup cost and steady-state
// resident memory shift to the kernel page cache, shared across processes
// serving the same file. Uncompressed pages are read at mapping speed with
// no decode at all; compressed pages are checked and their sort column
// decoded on every read, then inside the query's window each other column
// is unpacked only where the scan reads it — a column the rectangle tests,
// over the rows still selected; a column an aggregate folds or groups on,
// over the selected rows; every column of the rows a reply keeps — into
// scratch the scan owns, which a query's fold copies the rows it keeps out
// of. A
// Snapshot must be kept open (and its file unmodified) for as long as its
// index is in use.
func OpenFile(path string) (*Snapshot, error) {
	return OpenFileOptions(path, OpenOptions{})
}

// OpenOptions tunes OpenFile. It has no effective field left.
type OpenOptions struct {
	// PageCacheBytes is ignored.
	//
	// Deprecated: it bounded a cache of decoded pages that no longer
	// exists — compressed pages are decoded per read and never retained.
	// The field remains so existing callers compile.
	PageCacheBytes int64
}

// OpenFileOptions is OpenFile; see OpenOptions.
func OpenFileOptions(path string, _ OpenOptions) (*Snapshot, error) {
	ms, err := mmapsnap.OpenFile(path)
	if errors.Is(err, mmapsnap.ErrVersion) {
		return nil, fmt.Errorf("%w; `coaxstore convert -in %s -out NEW` rewrites a version 1 or 2 file as version %d",
			err, path, SnapshotVersionV3)
	}
	if err != nil {
		return nil, err
	}
	idx := ms.Sharded()
	if idx == nil {
		if idx, err = shard.Reassemble([]*core.COAX{ms.Index()}, shard.ByHash, -1, nil, 0); err != nil {
			ms.Close()
			return nil, err
		}
	}
	return &Snapshot{idx: idx, ms: ms}, nil
}
