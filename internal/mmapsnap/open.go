package mmapsnap

import (
	"fmt"
	"io"
	"os"
	"unsafe"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/shard"
)

// Snapshot is an opened v3 snapshot, backed by a mapping, a heap buffer,
// or caller-owned bytes. Its index is range slots: a sharded file's as
// saved, a single-index file's as one slot with no cuts.
type Snapshot struct {
	idx     *shard.Sharded
	mapping *mapping // non-nil when OpenFile owns the backing memory
	mapped  bool     // true when the backing memory is an actual mmap
	errs    *errBox
}

// Index returns the snapshot's index.
func (s *Snapshot) Index() *shard.Sharded { return s.idx }

// Mapped reports whether queries are served from an mmap'd region rather
// than resident heap.
func (s *Snapshot) Mapped() bool { return s.mapped }

// PageErr returns the first page corruption a read detected, if any. The
// scan path cannot surface an error mid-query — a corrupt compressed page
// is skipped — so callers that need a guarantee check this after querying
// or mutating, or run Verify up front.
func (s *Snapshot) PageErr() error { return s.errs.get() }

// Close releases the mapping. The snapshot's indexes must not be used
// afterwards: their pages alias the mapped region.
func (s *Snapshot) Close() error {
	if s.mapping == nil {
		return nil
	}
	m := s.mapping
	s.mapping = nil
	return m.close()
}

// OpenBytes opens a v3 snapshot over data. When data is 64-byte aligned
// (an mmap'd file, or a buffer from alignedBuffer) the fixed-width regions
// are aliased zero-copy; otherwise the blob is first copied into an
// aligned buffer. The returned snapshot does not own data.
func OpenBytes(data []byte) (*Snapshot, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%pageAlign != 0 {
		buf := alignedBuffer(len(data))
		copy(buf, data)
		data = buf
	}
	return openBlob(data, nil, false)
}

func openBlob(data []byte, m *mapping, mapped bool) (*Snapshot, error) {
	errs := &errBox{} // shared by every grid of the snapshot, nested shards included
	entries, err := parseTOC(data)
	if err != nil {
		return nil, err
	}
	var idx *shard.Sharded
	if e, ok := find(entries, secShardMeta); ok {
		idx, err = openSharded(data, entries, e, errs)
	} else {
		var one *core.COAX
		if one, err = openSingle(data, entries, errs); err == nil {
			idx, err = shard.Reassemble([]*core.COAX{one}, shard.Ranges{Col: -1}, 0)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Snapshot{idx: idx, mapping: m, mapped: mapped, errs: errs}, nil
}

func find(entries []tocEntry, id string) (tocEntry, bool) {
	for _, e := range entries {
		if e.id == id {
			return e, true
		}
	}
	return tocEntry{}, false
}

// attach parses a plain binio section payload with an attach-style codec,
// requiring exact consumption.
func attach(blob []byte, entries []tocEntry, id string, required bool, fn func(*binio.Reader) error) error {
	e, ok := find(entries, id)
	if !ok {
		if required {
			return fmt.Errorf("mmapsnap: missing %q section", id)
		}
		return nil
	}
	payload, err := sectionPayload(blob, e)
	if err != nil {
		return err
	}
	r := binio.NewReader(payload)
	if err := fn(r); err != nil {
		return fmt.Errorf("mmapsnap: section %q: %w", id, err)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("mmapsnap: section %q: %w", id, err)
	}
	return nil
}

// openSingle assembles one COAX index from a single-index blob.
func openSingle(blob []byte, entries []tocEntry, errs *errBox) (*core.COAX, error) {
	var idx *core.COAX
	err := attach(blob, entries, secMeta, true, func(r *binio.Reader) error {
		var err error
		idx, err = core.DecodeMeta(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := attach(blob, entries, secSoftFD, true, idx.DecodeAttachFD); err != nil {
		return nil, err
	}
	if e, ok := find(entries, secPrimary); ok {
		g, err := openGridEntry(blob, e, errs)
		if err != nil {
			return nil, err
		}
		if err := idx.AttachPrimary(g); err != nil {
			return nil, fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
		}
	}
	if e, ok := find(entries, secOutlGrid); ok {
		g, err := openGridEntry(blob, e, errs)
		if err != nil {
			return nil, err
		}
		if err := idx.AttachOutliers(g); err != nil {
			return nil, fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
		}
	}
	if err := attach(blob, entries, secOutlRTree, false, idx.DecodeRegridOutliers); err != nil {
		return nil, err
	}
	if err := attach(blob, entries, secLifecycle, true, idx.DecodeAttachLifecycleScalars); err != nil {
		return nil, err
	}
	if err := attach(blob, entries, secColumns, false, idx.DecodeAttachColumns); err != nil {
		return nil, err
	}
	if err := idx.FinishDecode(); err != nil {
		return nil, fmt.Errorf("mmapsnap: %w", err)
	}
	return idx, nil
}

func openGridEntry(blob []byte, e tocEntry, errs *errBox) (*gridfile.GridFile, error) {
	payload, err := sectionPayload(blob, e)
	if err != nil {
		return nil, err
	}
	sec, err := parseGridSection(payload)
	if err != nil {
		return nil, fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
	}
	g, err := openGridSection(sec, errs)
	if err != nil {
		return nil, fmt.Errorf("mmapsnap: section %q: %w", e.id, err)
	}
	return g, nil
}

// openSharded assembles a sharded index: the layout section plus one
// nested v3 blob per shard, all sharing this open's error latch.
func openSharded(blob []byte, entries []tocEntry, layout tocEntry, errs *errBox) (*shard.Sharded, error) {
	payload, err := sectionPayload(blob, layout)
	if err != nil {
		return nil, err
	}
	r := binio.NewReader(payload)
	k := r.Int()
	partition := r.Int()
	col := r.Int()
	cuts := r.Float64s()
	dims := r.Int()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("mmapsnap: section %q: %w", secShardMeta, err)
	}
	if k < 1 || k > shard.MaxShards {
		return nil, fmt.Errorf("mmapsnap: shard count %d out of range [1,%d]", k, shard.MaxShards)
	}
	// Partition word 1 is the retired hash scheme: one slot holds the
	// same rows under either word, more slots cannot be routed by range.
	if partition != 0 && (partition != 1 || k > 1) {
		return nil, fmt.Errorf("%w: partition word %d over %d shards; only range slots (0) are read", ErrLayout, partition, k)
	}
	shards := make([]*core.COAX, k)
	for i := range shards {
		id := shardSection(i)
		e, ok := find(entries, id)
		if !ok {
			return nil, fmt.Errorf("mmapsnap: missing shard section %q", id)
		}
		sub := blob[e.off : e.off+e.len]
		subEntries, err := parseTOC(sub)
		if err != nil {
			return nil, fmt.Errorf("mmapsnap: shard %d: %w", i, err)
		}
		if _, nested := find(subEntries, secShardMeta); nested {
			return nil, fmt.Errorf("%w: shard %d is itself sharded", ErrLayout, i)
		}
		idx, err := openSingle(sub, subEntries, errs)
		if err != nil {
			return nil, fmt.Errorf("mmapsnap: shard %d: %w", i, err)
		}
		if idx.Dims() != dims {
			return nil, fmt.Errorf("mmapsnap: shard %d has %d dims, layout says %d", i, idx.Dims(), dims)
		}
		shards[i] = idx
	}
	s, err := shard.Reassemble(shards, shard.Ranges{Col: col, Cuts: cuts}, 0)
	if err != nil {
		return nil, fmt.Errorf("mmapsnap: %w", err)
	}
	return s, nil
}

// alignedBuffer allocates n bytes whose first byte sits on a 64-byte
// boundary, so region aliasing works exactly as over an mmap.
func alignedBuffer(n int) []byte {
	b := make([]byte, n+pageAlign-1)
	off := 0
	if n > 0 {
		off = int((pageAlign - uintptr(unsafe.Pointer(&b[0]))%pageAlign) % pageAlign)
	}
	return b[off : off+n : off+n]
}

// readAligned reads a whole file into an aligned buffer — the open path
// for platforms (or filesystems) where mmap is unavailable.
func readAligned(f *os.File, size int64) ([]byte, error) {
	if size < 0 || size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("mmapsnap: file of %d bytes exceeds address space", size)
	}
	data := alignedBuffer(int(size))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return data, nil
}
