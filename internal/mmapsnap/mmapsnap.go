// Package mmapsnap implements COAXSNAP format version 3: a snapshot layout
// whose hot sections — grid directory, row pages, tombstone bitmaps — are
// fixed-width little-endian regions placed on 64-byte boundaries, so a
// reader can serve queries straight out of an mmap'd file instead of
// decoding the whole snapshot into heap. Optional per-page columnar
// compression (delta + bit-packing for integer-valued columns,
// frame-of-reference XOR packing for floats) trades the zero-copy alias
// for a per-read decode of just the rows a scan can use, into scratch the
// scan owns; nothing decoded is retained (see readSpan).
//
// # Container layout (version 3)
//
// All integers are little-endian. A "blob" is one self-contained v3
// snapshot: the whole file for a single index, or a nested sub-blob per
// shard. Every offset below is relative to the blob's first byte, and the
// writer 64-byte-aligns each page-structured section, so mapping the file
// at any page-aligned address aligns every region.
//
//	header:
//	  magic        [8]byte  "COAXSNAP"
//	  version      uint32   3
//	  sectionCount uint32
//	sectionCount × TOC entry (32 bytes each):
//	  id      [4]byte  ASCII section tag
//	  flags   uint32   bit 0: page-structured (alias-mapped, 64-aligned)
//	  offset  uint64   payload offset from blob start
//	  length  uint64   payload length in bytes
//	  crc32c  uint32   Castagnoli CRC of the payload
//	  pad     uint32   zero
//	payloads at their recorded offsets
//
// Plain sections ("meta", "sofd", "lifs", "cols", "shmt", and the read-only
// "ortr") hold binio payloads exactly like format v2 and are CRC-verified
// eagerly at open. Page-structured sections ("pgr3", "ogr3", shard sub-blobs
// "s000"…) are *not* checksummed at open — that would force reading every
// byte and defeat O(1) start — their structure is bounds-checked eagerly,
// their content verified on every read (each compressed page carries its
// own CRC) or on demand via Verify.
//
// A sharded blob's "shmt" section holds the shard count K, a partition
// word, the range column, the K−1 ascending cut points and the dims. The
// partition word is always written 0 (range slots); 1 is what re-saving a
// single-index file wrote when hash partitioning existed, and it is read
// only at K = 1, where it places nothing. A single-index blob has no
// "shmt" and opens as one slot with column −1 and no cuts.
//
// The lifecycle section "lifs" carries only the scalar state (epoch,
// staleness baseline, drift tracker); tombstones live as bitmap regions
// inside the grid page sections, unlike v2's slot lists.
//
// # Grid page section ("pgr3" primary / "ogr3" grid outliers)
//
//	u64 headerLen
//	binio header: grid config, partition bounds, overflow pages, a region
//	  table (offset/length of each region below, relative to the section),
//	  and a compressed flag; axis i has len(bounds[i])−1 cells, at most the
//	  config's CellsPerDim, and cells is their product
//	padding to 64
//	offsets region   (cells+1) × i64   row offsets (the grid directory)
//	dead region      bitmap words, u64 each (may be empty)
//	pagedir region   (cells+1) × u64   compressed only: per-cell blob ends
//	data region      uncompressed: rows×dims f64, aliased zero-copy;
//	                 compressed: concatenated per-cell blobs (see colcodec)
//
// R-tree outliers ("ortr", the v2 pre-order codec) are read only: files
// written before the outlier index became grid-only may carry them, and
// open regrids their rows into an in-heap outlier grid
// (core.DecodeRegridOutliers). Nothing writes one.
package mmapsnap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Version is the snapshot format version this package reads and writes.
const Version = 3

var magic = [8]byte{'C', 'O', 'A', 'X', 'S', 'N', 'A', 'P'}

// Section tags. Plain sections reuse the v2 payload codecs.
const (
	secMeta      = "meta"
	secSoftFD    = "sofd"
	secLifecycle = "lifs"
	secColumns   = "cols"
	secPrimary   = "pgr3"
	secOutlGrid  = "ogr3"
	secOutlRTree = "ortr" // read-only: regridded at open
	secShardMeta = "shmt"
)

// flagPages marks a section whose payload is page-structured: 64-byte
// aligned, alias-mapped, not CRC-verified at open.
const flagPages = 1

// pageAlign is the alignment of every page-structured section and of each
// fixed-width region inside a grid page section.
const pageAlign = 64

// Sentinel errors. Open wraps them with positional detail.
var (
	ErrBadMagic  = errors.New("mmapsnap: bad magic (not a COAX snapshot)")
	ErrVersion   = errors.New("mmapsnap: not a version-3 snapshot")
	ErrTruncated = errors.New("mmapsnap: truncated snapshot")
	ErrLayout    = errors.New("mmapsnap: invalid section layout")
	ErrChecksum  = errors.New("mmapsnap: section checksum mismatch")
	// ErrPage is the sticky error a page store records when a page it is
	// asked to read is corrupt; see Snapshot.PageErr.
	ErrPage = errors.New("mmapsnap: corrupt page")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func shardSection(i int) string { return fmt.Sprintf("s%03x", i) }

// tocEntry is one parsed table-of-contents record.
type tocEntry struct {
	id    string
	flags uint32
	off   uint64
	len   uint64
	crc   uint32
}

const headerSize = 16
const tocEntrySize = 32

func align64(n int) int { return (n + pageAlign - 1) &^ (pageAlign - 1) }

// PeekVersion reports the format version of a snapshot prefix, or an error
// when the magic is absent. It needs only the first 12 bytes.
func PeekVersion(head []byte) (uint32, error) {
	if len(head) < 12 {
		return 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(head))
	}
	for i, b := range magic {
		if head[i] != b {
			return 0, ErrBadMagic
		}
	}
	return binary.LittleEndian.Uint32(head[8:]), nil
}

// parseTOC validates the blob frame: magic, version, a table of contents
// whose every entry lies inside the blob, page-structured sections
// 64-byte aligned, and no overlap with the header area. Payload content is
// not touched.
func parseTOC(blob []byte) ([]tocEntry, error) {
	v, err := PeekVersion(blob)
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: file has version %d", ErrVersion, v)
	}
	if len(blob) < headerSize {
		return nil, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(blob))
	}
	count := binary.LittleEndian.Uint32(blob[12:])
	tocEnd := uint64(headerSize) + uint64(count)*tocEntrySize
	if tocEnd > uint64(len(blob)) {
		return nil, fmt.Errorf("%w: %d TOC entries need %d bytes, blob has %d", ErrTruncated, count, tocEnd, len(blob))
	}
	entries := make([]tocEntry, 0, count)
	seen := make(map[string]bool, count)
	for i := uint32(0); i < count; i++ {
		rec := blob[headerSize+int(i)*tocEntrySize:]
		e := tocEntry{
			id:    string(rec[:4]),
			flags: binary.LittleEndian.Uint32(rec[4:]),
			off:   binary.LittleEndian.Uint64(rec[8:]),
			len:   binary.LittleEndian.Uint64(rec[16:]),
			crc:   binary.LittleEndian.Uint32(rec[24:]),
		}
		if seen[e.id] {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrLayout, e.id)
		}
		seen[e.id] = true
		if e.off < tocEnd || e.off+e.len < e.off || e.off+e.len > uint64(len(blob)) {
			return nil, fmt.Errorf("%w: section %q spans [%d,%d) outside blob of %d bytes",
				ErrLayout, e.id, e.off, e.off+e.len, len(blob))
		}
		if e.flags&flagPages != 0 && e.off%pageAlign != 0 {
			return nil, fmt.Errorf("%w: page section %q at unaligned offset %d", ErrLayout, e.id, e.off)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// sectionPayload returns a section's bytes, CRC-verified for plain
// sections (page-structured content is verified on read or via Verify).
func sectionPayload(blob []byte, e tocEntry) ([]byte, error) {
	p := blob[e.off : e.off+e.len]
	if e.flags&flagPages == 0 {
		if got := crc32.Checksum(p, castagnoli); got != e.crc {
			return nil, fmt.Errorf("%w: section %q has CRC %#08x, want %#08x", ErrChecksum, e.id, got, e.crc)
		}
	}
	return p, nil
}
