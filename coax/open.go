package coax

import (
	"fmt"
	"io"
	"os"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/snapshot"
)

// Snapshot format versions. Versions 1 and 2 are the streaming heap-decoded
// container written by SaveSharded/SaveShardedFile; version 3 is the
// page-aligned memory-mapped container written by SaveShardedFileV3 (see
// internal/mmapsnap for the layout).
const (
	SnapshotVersion   = snapshot.Version
	SnapshotVersionV3 = mmapsnap.Version
)

// SaveShardedFileV3 writes idx to path in snapshot format v3: hot sections
// laid out as fixed-width 64-byte-aligned pages that OpenFile can serve
// straight from a memory mapping, without decoding the file onto the heap;
// every shard is a nested page-aligned blob under the one mapping. With
// compress set, each grid cell page is stored columnar (delta/frame-of-
// reference bit-packed) and decoded on every read, only the rows a scan can
// use, with nothing retained. The write is atomic, like SaveShardedFile.
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

// PeekSnapshotVersion reports the snapshot format version of the file at
// path from its 12-byte header, without loading it.
func PeekSnapshotVersion(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var head [12]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, fmt.Errorf("coax: reading snapshot header: %w", err)
	}
	return mmapsnap.PeekVersion(head[:])
}

// Snapshot is an index opened from a snapshot file of any format version
// and either layout — a single-index file opens as one shard — and, for a
// mapped v3 file, the mapping backing it.
type Snapshot struct {
	idx     *Index
	ms      *mmapsnap.Snapshot
	version uint32
}

// Version is the on-disk format version the snapshot was opened from.
func (s *Snapshot) Version() uint32 { return s.version }

// Mapped reports whether queries are served from a memory mapping rather
// than decoded heap state. Always false for v1/v2 files and on platforms
// without mmap support.
func (s *Snapshot) Mapped() bool { return s.ms != nil && s.ms.Mapped() }

// PageErr returns the first corruption detected while reading a compressed
// v3 page, if any — every read re-checks the page (CRC, layout, sort
// order), and the scan path skips a page that fails rather than failing
// mid-query, so a query, Delete, Update or Compact that met one looks like
// a short answer, a missing row or a no-op until this is consulted. The
// error is sticky. Callers that need an up-front guarantee should verify
// the file with `coaxstore info -verify` (or mmapsnap.Verify).
func (s *Snapshot) PageErr() error {
	if s.ms == nil {
		return nil
	}
	return s.ms.PageErr()
}

// Close releases the mapping of a v3 snapshot; the index obtained from this
// snapshot must not be used afterwards. Closing a heap-loaded snapshot
// is a no-op.
func (s *Snapshot) Close() error {
	if s.ms == nil {
		return nil
	}
	return s.ms.Close()
}

// Serving returns the snapshot's index with its query fan-out pool sized to
// workers (one per CPU when workers ≤ 0) — what cmd/coaxserve serves from.
// The error is always nil.
func (s *Snapshot) Serving(workers int) (*Index, error) {
	s.idx.SetWorkers(workers)
	return s.idx, nil
}

// OpenFile opens a snapshot of any format version from path, dispatching
// on the header: version 3 files are memory-mapped and served in place
// (falling back to an aligned heap read where mmap is unavailable), while
// version 1/2 files are decoded onto the heap by LoadShardedFile. Either
// way the file is decoded once, and a damaged file reports the decoder's
// own error.
//
// Compared to a heap load, opening a v3 file is O(directory) instead of
// O(rows): startup cost and steady-state resident memory shift to the
// kernel page cache, shared across processes serving the same file. The
// trade-offs run the other way on the query path — uncompressed pages are
// read at mapping speed with no decode at all, compressed pages are decoded
// on every read (the sort column, then only the rows inside the query's
// window, into scratch the scan owns, which a query's fold copies the rows
// it keeps out of) — and a v3 Snapshot must be kept open
// (and its file unmodified) for as long as its index is in use.
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
	v, err := PeekSnapshotVersion(path)
	if err != nil {
		return nil, err
	}
	if v != mmapsnap.Version {
		idx, err := LoadShardedFile(path)
		if err != nil {
			return nil, err
		}
		return &Snapshot{idx: idx, version: v}, nil
	}
	ms, err := mmapsnap.OpenFile(path)
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
	return &Snapshot{idx: idx, ms: ms, version: v}, nil
}
