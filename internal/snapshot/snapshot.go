// Package snapshot persists a built COAX index to a versioned,
// self-describing binary file and loads it back, so the expensive build —
// soft-FD detection, inlier/outlier split, grid-file and R-tree
// construction — runs once while every subsequent process start is a
// sequential read.
//
// # On-disk format (version 2)
//
// All integers are little-endian; floats are IEEE-754 bit patterns.
//
//	header:
//	  magic          [8]byte  "COAXSNAP"
//	  formatVersion  uint32   currently 2
//	  sectionCount   uint32
//	sectionCount × section:
//	  id             [4]byte  ASCII section tag
//	  payloadLen     uint64
//	  payload        [payloadLen]byte
//	  crc32c         uint32   Castagnoli CRC of payload
//
// A COAX snapshot carries, in order: "meta" (scalar state, partition
// bounds, build parameters), "sofd" (soft-FD groups, pair models, and
// margins — loading it is what makes re-detection unnecessary), "prim"
// (the primary grid file; omitted when every row was an outlier), "outl"
// (the outlier grid file or R-tree; omitted when every row was an
// inlier), and "life" (the lifecycle state added in version 2: rebuild
// epoch, staleness baseline, mutation/drift counters, and the tombstone
// slots of both grids, so a loaded index resumes mid-lifecycle). An
// in-flight epoch rebuild is not persisted: the serving epoch already
// holds every mutation its delta log records, so after a load the
// compactor re-detects staleness and restarts the rebuild from scratch.
// When the build table carried column names, an additive "cols" section
// preserves them so a loaded index answers name-based Query API v2
// queries; files without it load with positional columns only.
// A standalone table snapshot carries a single "tabl" section with the
// column-major payload of internal/dataset.EncodeTable.
//
// Version 1 files (written before the mutation layer existed) decode
// unchanged: they simply lack the "life" section, so the loaded index
// starts a fresh lifecycle with zero tombstones and zeroed counters.
//
// A sharded snapshot (internal/shard) reuses the same container: a "shmt"
// section records the shard layout (shard count, partition scheme, range
// column, cut points), followed by one section per shard — ids "s000",
// "s001", … (the ordinal in hex) — whose payload is itself a complete
// single-index snapshot. Each shard therefore round-trips through the
// exact codecs above, and every layer stays independently checksummed.
//
// Section payloads are produced and consumed by the per-layer codecs
// (internal/core, internal/softfd, internal/gridfile, internal/rtree,
// internal/dataset over internal/binio primitives); this package owns only
// the framing: magic, version, per-section lengths, and checksums. Decode
// verifies every checksum before parsing a byte of payload, so truncation
// and corruption surface as errors — never panics — and unknown trailing
// sections written by a future minor revision are skipped, not fatal.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/shard"
)

// Version is the current snapshot format version; MinVersion is the oldest
// format this build still reads (version 1 predates the "life" section).
const (
	Version    = 2
	MinVersion = 1
)

var magic = [8]byte{'C', 'O', 'A', 'X', 'S', 'N', 'A', 'P'}

// Section tags of format version 1.
const (
	secMeta      = "meta"
	secSoftFD    = "sofd"
	secPrimary   = "prim"
	secOutliers  = "outl"
	secLifecycle = "life"
	secTable     = "tabl"
	secShardMeta = "shmt"
	// secColumns is an additive section carrying the build table's column
	// names so loaded snapshots answer name-based (Query API v2) queries.
	// It is omitted when the table had no names; readers predating it skip
	// it as an unknown trailing section.
	secColumns = "cols"
)

// shardSection names the section holding shard i: "s" plus the ordinal in
// three hex digits, which covers shard.MaxShards.
func shardSection(i int) string { return fmt.Sprintf("s%03x", i) }

// Sentinel errors; Decode wraps them with positional detail.
var (
	ErrBadMagic  = errors.New("snapshot: bad magic (not a COAX snapshot)")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrChecksum  = errors.New("snapshot: section checksum mismatch")
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrSharded is returned by Decode for a file holding a sharded index.
	ErrSharded = errors.New("snapshot: file holds a sharded index (use DecodeSharded)")
	// ErrNotSharded is returned by DecodeSharded for a single-index file.
	ErrNotSharded = errors.New("snapshot: file holds a single index (use Decode)")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes idx to w in snapshot format.
func Encode(w io.Writer, idx *core.COAX) error {
	type section struct {
		id   string
		emit func(*binio.Writer) error
	}
	sections := []section{
		{secMeta, func(bw *binio.Writer) error { idx.EncodeMeta(bw); return nil }},
		{secSoftFD, func(bw *binio.Writer) error { idx.EncodeFD(bw); return nil }},
	}
	if idx.HasPrimary() {
		sections = append(sections, section{secPrimary, func(bw *binio.Writer) error { idx.EncodePrimary(bw); return nil }})
	}
	if idx.HasOutliers() {
		sections = append(sections, section{secOutliers, idx.EncodeOutliers})
	}
	sections = append(sections, section{secLifecycle, func(bw *binio.Writer) error { idx.EncodeLifecycle(bw); return nil }})
	if idx.HasColumnNames() {
		sections = append(sections, section{secColumns, func(bw *binio.Writer) error { idx.EncodeColumns(bw); return nil }})
	}

	if err := writeHeader(w, len(sections)); err != nil {
		return err
	}
	for _, s := range sections {
		bw := binio.NewWriter()
		if err := s.emit(bw); err != nil {
			return err
		}
		if err := writeSection(w, s.id, bw.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a COAX snapshot and reassembles the index. The returned
// index answers queries identically to the one that was saved and is safe
// for concurrent readers.
func Decode(r io.Reader) (*core.COAX, error) {
	sections, err := readFile(r)
	if err != nil {
		return nil, err
	}
	if _, ok := sections[secShardMeta]; ok {
		return nil, ErrSharded
	}
	return decodeSingle(sections)
}

// decodeSingle reassembles a single index from its file's sections.
func decodeSingle(sections map[string][]byte) (*core.COAX, error) {
	metaPayload, ok := sections[secMeta]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing %q section", secMeta)
	}
	idx, err := decodeSection(secMeta, metaPayload, core.DecodeMeta)
	if err != nil {
		return nil, err
	}
	fdPayload, ok := sections[secSoftFD]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing %q section", secSoftFD)
	}
	if err := attachSection(secSoftFD, fdPayload, idx.DecodeAttachFD); err != nil {
		return nil, err
	}
	if payload, ok := sections[secPrimary]; ok {
		if err := attachSection(secPrimary, payload, idx.DecodeAttachPrimary); err != nil {
			return nil, err
		}
	}
	if payload, ok := sections[secOutliers]; ok {
		if err := attachSection(secOutliers, payload, idx.DecodeAttachOutliers); err != nil {
			return nil, err
		}
	}
	// The lifecycle section must attach after the grids so its tombstone
	// slots have pages to land in; version-1 files simply lack it.
	if payload, ok := sections[secLifecycle]; ok {
		if err := attachSection(secLifecycle, payload, idx.DecodeAttachLifecycle); err != nil {
			return nil, err
		}
	}
	// Column names are optional: snapshots of unnamed tables (and files
	// written before the section existed) load with positional columns only.
	if payload, ok := sections[secColumns]; ok {
		if err := attachSection(secColumns, payload, idx.DecodeAttachColumns); err != nil {
			return nil, err
		}
	}
	if err := idx.FinishDecode(); err != nil {
		return nil, err
	}
	return idx, nil
}

// EncodeSharded writes a sharded index to w: one "shmt" layout section,
// then one section per shard whose payload is a complete single-index
// snapshot. Each shard is serialised under its read lock, so encoding is
// safe while the index keeps serving queries and inserts; shards encoded
// earlier may miss inserts that land later during the write (the snapshot
// is per-shard consistent, not a global point-in-time cut).
func EncodeSharded(w io.Writer, s *shard.Sharded) error {
	k := s.NumShards()
	if err := writeHeader(w, 1+k); err != nil {
		return err
	}

	layout := binio.NewWriter()
	layout.Int(k)
	layout.Int(int(s.Partition()))
	layout.Int(s.RangeColumn())
	layout.Float64s(s.Cuts())
	layout.Int(s.Dims())
	if err := writeSection(w, secShardMeta, layout.Bytes()); err != nil {
		return err
	}

	for i := 0; i < k; i++ {
		var buf bytes.Buffer
		err := s.WithShard(i, func(idx *core.COAX) error { return Encode(&buf, idx) })
		if err != nil {
			return fmt.Errorf("snapshot: encoding shard %d: %w", i, err)
		}
		if err := writeSection(w, shardSection(i), buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSharded reads a snapshot written by EncodeSharded and reassembles
// the sharded index. The result answers queries identically to the index
// that was saved and is immediately safe for concurrent use.
func DecodeSharded(r io.Reader) (*shard.Sharded, error) {
	sections, err := readFile(r)
	if err != nil {
		return nil, err
	}
	layout, ok := sections[secShardMeta]
	if !ok {
		if _, single := sections[secMeta]; single {
			return nil, ErrNotSharded
		}
		return nil, fmt.Errorf("snapshot: missing %q section", secShardMeta)
	}
	return decodeSharded(sections, layout)
}

// DecodeAny reads a snapshot of either layout as a sharded index — a sharded
// file as it was saved, a single-index file as one shard — reading and
// checksumming the file once. Its errors are the decoders' own.
func DecodeAny(r io.Reader) (*shard.Sharded, error) {
	sections, err := readFile(r)
	if err != nil {
		return nil, err
	}
	if layout, ok := sections[secShardMeta]; ok {
		return decodeSharded(sections, layout)
	}
	idx, err := decodeSingle(sections)
	if err != nil {
		return nil, err
	}
	return shard.Reassemble([]*core.COAX{idx}, shard.ByHash, -1, nil, 0)
}

// decodeSharded reassembles a sharded index from its file's sections, the
// "shmt" layout payload among them.
func decodeSharded(sections map[string][]byte, layout []byte) (*shard.Sharded, error) {
	br := binio.NewReader(layout)
	k := br.Int()
	partition := shard.Partition(br.Int())
	col := br.Int()
	cuts := br.Float64s()
	dims := br.Int()
	if err := br.Close(); err != nil {
		return nil, fmt.Errorf("snapshot: section %q: %w", secShardMeta, err)
	}
	if k < 1 || k > shard.MaxShards {
		return nil, fmt.Errorf("snapshot: shard count %d out of range [1,%d]", k, shard.MaxShards)
	}

	shards := make([]*core.COAX, k)
	for i := range shards {
		id := shardSection(i)
		payload, ok := sections[id]
		if !ok {
			return nil, fmt.Errorf("snapshot: missing shard section %q", id)
		}
		idx, err := Decode(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("snapshot: shard %d: %w", i, err)
		}
		if idx.Dims() != dims {
			return nil, fmt.Errorf("snapshot: shard %d has %d dims, layout says %d", i, idx.Dims(), dims)
		}
		shards[i] = idx
	}
	s, err := shard.Reassemble(shards, partition, col, cuts, 0)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return s, nil
}

// EncodeTable writes a standalone table snapshot — the column-major
// payload used to persist datasets alongside their indexes.
func EncodeTable(w io.Writer, t *dataset.Table) error {
	bw := binio.NewWriter()
	dataset.EncodeTable(bw, t)
	if err := writeHeader(w, 1); err != nil {
		return err
	}
	return writeSection(w, secTable, bw.Bytes())
}

// DecodeTable reads a table snapshot written by EncodeTable.
func DecodeTable(r io.Reader) (*dataset.Table, error) {
	sections, err := readFile(r)
	if err != nil {
		return nil, err
	}
	payload, ok := sections[secTable]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing %q section", secTable)
	}
	return decodeSection(secTable, payload, dataset.DecodeTable)
}

// SectionInfo describes one framed section without decoding its payload.
type SectionInfo struct {
	ID  string
	Len uint64
	CRC uint32
}

// Info is the frame-level description returned by Inspect.
type Info struct {
	Version  uint32
	Sections []SectionInfo
}

// Inspect reads and checksums the snapshot frame without reassembling the
// index; coaxstore's info subcommand uses it to describe a file cheaply.
func Inspect(r io.Reader) (Info, error) {
	version, count, err := readHeader(r)
	if err != nil {
		return Info{}, err
	}
	info := Info{Version: version}
	for i := uint32(0); i < count; i++ {
		id, payload, crc, err := readSection(r)
		if err != nil {
			return Info{}, err
		}
		info.Sections = append(info.Sections, SectionInfo{
			ID:  id,
			Len: uint64(len(payload)),
			CRC: crc,
		})
	}
	return info, nil
}

// --- framing ---

func writeHeader(w io.Writer, sections int) error {
	bw := binio.NewWriter()
	bw.Uint32(Version)
	bw.Uint32(uint32(sections))
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	_, err := w.Write(bw.Bytes())
	return err
}

func writeSection(w io.Writer, id string, payload []byte) error {
	if len(id) != 4 {
		return fmt.Errorf("snapshot: section id %q must be 4 bytes", id)
	}
	bw := binio.NewWriter()
	bw.Uint64(uint64(len(payload)))
	if _, err := io.WriteString(w, id); err != nil {
		return err
	}
	if _, err := w.Write(bw.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	tail := binio.NewWriter()
	tail.Uint32(crc32.Checksum(payload, castagnoli))
	_, err := w.Write(tail.Bytes())
	return err
}

func readHeader(r io.Reader) (version, sections uint32, err error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: reading header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(head[:8], magic[:]) {
		return 0, 0, ErrBadMagic
	}
	hr := binio.NewReader(head[8:])
	version = hr.Uint32()
	sections = hr.Uint32()
	if version == Version+1 {
		// Version 3 is the memory-mapped page format: a different container
		// (TOC-framed, 64-byte-aligned sections) read by internal/mmapsnap.
		return 0, 0, fmt.Errorf("%w: file has version %d (memory-mapped format; open it with coax.OpenFile or internal/mmapsnap)", ErrVersion, version)
	}
	if version < MinVersion || version > Version {
		return 0, 0, fmt.Errorf("%w: file has version %d, this build reads %d–%d", ErrVersion, version, MinVersion, Version)
	}
	return version, sections, nil
}

// readSection reads one framed section, verifying its checksum before the
// payload is handed to any parser; the verified CRC is returned so callers
// need not recompute it.
func readSection(r io.Reader) (id string, payload []byte, crc uint32, err error) {
	var head [12]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return "", nil, 0, fmt.Errorf("%w: reading section header: %v", ErrTruncated, err)
	}
	id = string(head[:4])
	length := binio.NewReader(head[4:]).Uint64()
	// Copy incrementally rather than pre-allocating `length` bytes: a
	// corrupted length then costs at most the real file size before the
	// truncation error fires.
	var buf bytes.Buffer
	if n, err := io.CopyN(&buf, r, int64(length)); err != nil || uint64(n) != length {
		return "", nil, 0, fmt.Errorf("%w: section %q declares %d payload bytes, read %d", ErrTruncated, id, length, buf.Len())
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return "", nil, 0, fmt.Errorf("%w: reading section %q checksum: %v", ErrTruncated, id, err)
	}
	payload = buf.Bytes()
	want := binio.NewReader(tail[:]).Uint32()
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return "", nil, 0, fmt.Errorf("%w: section %q has CRC %#08x, want %#08x", ErrChecksum, id, got, want)
	}
	return id, payload, want, nil
}

// readFile reads the whole frame into a section map. Duplicate sections are
// rejected; unknown ids are tolerated (forward compatibility for additive
// revisions that keep the major version).
func readFile(r io.Reader) (map[string][]byte, error) {
	_, count, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	// The declared section count is untrusted input: a crafted header can
	// claim 2³² sections, so it must not size an allocation up front (found
	// by fuzzing). Truncation errors cap the loop at the real section count.
	sections := make(map[string][]byte, min(count, 64))
	for i := uint32(0); i < count; i++ {
		id, payload, _, err := readSection(r)
		if err != nil {
			return nil, err
		}
		if _, dup := sections[id]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", id)
		}
		sections[id] = payload
	}
	return sections, nil
}

// decodeSection parses one payload with a constructor-style codec and
// requires the payload to be consumed exactly.
func decodeSection[T any](id string, payload []byte, parse func(*binio.Reader) (T, error)) (T, error) {
	br := binio.NewReader(payload)
	v, err := parse(br)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("snapshot: section %q: %w", id, err)
	}
	if err := br.Close(); err != nil {
		var zero T
		return zero, fmt.Errorf("snapshot: section %q: %w", id, err)
	}
	return v, nil
}

// attachSection parses one payload with an attach-style codec.
func attachSection(id string, payload []byte, attach func(*binio.Reader) error) error {
	br := binio.NewReader(payload)
	if err := attach(br); err != nil {
		return fmt.Errorf("snapshot: section %q: %w", id, err)
	}
	if err := br.Close(); err != nil {
		return fmt.Errorf("snapshot: section %q: %w", id, err)
	}
	return nil
}
