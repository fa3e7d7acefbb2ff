package mmapsnap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/shard"
)

// Options controls a v3 encode.
type Options struct {
	// Compress enables per-page columnar compression of grid data regions.
	// Compressed pages are decoded on every read, straight out of the mapping;
	// uncompressed ones are served zero-copy from the mapping.
	Compress bool
}

type rawSection struct {
	id      string
	flags   uint32
	payload []byte
}

// assemble frames sections into one blob: header, TOC, then payloads with
// every page-structured section on a 64-byte boundary.
func assemble(sections []rawSection) []byte {
	cursor := align64(headerSize + len(sections)*tocEntrySize)
	offs := make([]int, len(sections))
	for i, s := range sections {
		if s.flags&flagPages != 0 {
			cursor = align64(cursor)
		}
		offs[i] = cursor
		cursor += len(s.payload)
	}
	out := make([]byte, 0, cursor)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	for i, s := range sections {
		out = append(out, s.id[:4]...)
		out = binary.LittleEndian.AppendUint32(out, s.flags)
		out = binary.LittleEndian.AppendUint64(out, uint64(offs[i]))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
		out = binary.LittleEndian.AppendUint32(out, 0)
	}
	for i, s := range sections {
		for len(out) < offs[i] {
			out = append(out, 0)
		}
		out = append(out, s.payload...)
	}
	return out
}

func binioSection(id string, emit func(*binio.Writer)) rawSection {
	w := binio.NewWriter()
	emit(w)
	return rawSection{id: id, payload: w.Bytes()}
}

// EncodeIndex lays a single COAX index out as a version-3 blob. Safe to
// call under a shard read lock: it only reads through the index's
// accessors (cell pages are streamed via CellPages, never materialized or
// re-sorted).
func EncodeIndex(idx *core.COAX, opt Options) ([]byte, error) {
	sections := []rawSection{
		binioSection(secMeta, idx.EncodeMeta),
		binioSection(secSoftFD, idx.EncodeFD),
	}
	if idx.HasPrimary() {
		sections = append(sections, rawSection{
			id:      secPrimary,
			flags:   flagPages,
			payload: encodeGridSection(idx.Primary(), opt.Compress),
		})
	}
	if o, ok := idx.Outliers().(*gridfile.GridFile); ok {
		sections = append(sections, rawSection{
			id:      secOutlGrid,
			flags:   flagPages,
			payload: encodeGridSection(o, opt.Compress),
		})
	}
	sections = append(sections, binioSection(secLifecycle, idx.EncodeLifecycleScalars))
	if idx.HasColumnNames() {
		sections = append(sections, binioSection(secColumns, idx.EncodeColumns))
	}
	return assemble(sections), nil
}

// EncodeSharded lays a sharded index out as a version-3 blob: a "shmt"
// layout section (same payload as format v2), then one page-structured
// section per shard holding a complete nested v3 blob. Sub-blob offsets
// are relative to the sub-blob, and each lands on a 64-byte boundary of
// the parent, so one mapping serves every shard by subslicing. Each shard
// encodes under its read lock, so the index keeps serving during a save;
// the result is consistent per shard, not a global point-in-time cut.
func EncodeSharded(s *shard.Sharded, opt Options) ([]byte, error) {
	k := s.NumShards()
	layout := binio.NewWriter()
	layout.Int(k)
	layout.Int(0) // the partition word: range slots
	layout.Int(s.RangeColumn())
	layout.Float64s(s.Cuts())
	layout.Int(s.Dims())
	sections := []rawSection{{id: secShardMeta, payload: layout.Bytes()}}

	for i := 0; i < k; i++ {
		var blob []byte
		err := s.WithShard(i, func(idx *core.COAX) error {
			var err error
			blob, err = EncodeIndex(idx, opt)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("mmapsnap: encoding shard %d: %w", i, err)
		}
		sections = append(sections, rawSection{id: shardSection(i), flags: flagPages, payload: blob})
	}
	return assemble(sections), nil
}
