// Package snapshot reads snapshot formats 1 and 2, the streaming container
// that came before v3. Nothing writes or serves them any more: `coaxstore
// convert` decodes such a file once with Decode and rewrites it as v3.
//
// # On-disk format (versions 1 and 2)
//
// All integers are little-endian; floats are IEEE-754 bit patterns.
//
//	header:
//	  magic          [8]byte  "COAXSNAP"
//	  formatVersion  uint32   1 or 2
//	  sectionCount   uint32
//	sectionCount × section:
//	  id             [4]byte  ASCII section tag
//	  payloadLen     uint64
//	  payload        [payloadLen]byte
//	  crc32c         uint32   Castagnoli CRC of payload
//
// A single-index file carries, in order: "meta" (scalar state, partition
// bounds, build parameters), "sofd" (soft-FD groups, pair models and
// margins), "prim" (the primary grid file; absent when every row was an
// outlier), "outl" (the outlier grid file or R-tree; absent when every row
// was an inlier), "life" (version 2 only: rebuild epoch, staleness
// baseline, mutation/drift counters and the tombstone slots of both grids)
// and "cols" (column names; absent for unnamed tables). A version-1 file
// lacks "life" and opens with a fresh lifecycle.
//
// A sharded file holds a "shmt" section (shard count, partition scheme,
// range column, cut points, dims) followed by one section per shard — ids
// "s000", "s001", … (the ordinal in hex) — whose payload is a complete
// single-index file.
//
// Every checksum is verified before its payload is parsed, so truncation
// and corruption surface as errors, never panics; unknown ids are skipped.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/coax-index/coax/internal/binio"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/shard"
)

var magic = [8]byte{'C', 'O', 'A', 'X', 'S', 'N', 'A', 'P'}

// Section tags.
const (
	secMeta      = "meta"
	secSoftFD    = "sofd"
	secPrimary   = "prim"
	secOutliers  = "outl"
	secLifecycle = "life"
	secColumns   = "cols"
	secShardMeta = "shmt"
)

// Sentinel errors; Decode wraps them with positional detail.
var (
	ErrBadMagic  = errors.New("snapshot: bad magic (not a COAX snapshot)")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrChecksum  = errors.New("snapshot: section checksum mismatch")
	ErrTruncated = errors.New("snapshot: truncated file")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode reads a version-1 or version-2 snapshot of either layout as a
// sharded index: a sharded file as it was saved, a single-index file as
// one shard. The result answers queries identically to the index that was
// saved, with its tombstones, lifecycle counters and epochs.
func Decode(data []byte) (*shard.Sharded, error) {
	sections, err := readFile(data)
	if err != nil {
		return nil, err
	}
	layout, ok := sections[secShardMeta]
	if !ok {
		idx, err := decodeSingle(sections)
		if err != nil {
			return nil, err
		}
		return shard.Reassemble([]*core.COAX{idx}, shard.ByHash, -1, nil, 0)
	}

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
		id := fmt.Sprintf("s%03x", i)
		payload, ok := sections[id]
		if !ok {
			return nil, fmt.Errorf("snapshot: missing shard section %q", id)
		}
		inner, err := readFile(payload)
		if err != nil {
			return nil, fmt.Errorf("snapshot: shard %d: %w", i, err)
		}
		idx, err := decodeSingle(inner)
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

// decodeSingle reassembles one index from its sections. The lifecycle
// section attaches after the grids so its tombstone slots have pages to
// land in.
func decodeSingle(sections map[string][]byte) (*core.COAX, error) {
	var idx *core.COAX
	if err := attach(sections, secMeta, true, func(r *binio.Reader) (err error) {
		idx, err = core.DecodeMeta(r)
		return err
	}); err != nil {
		return nil, err
	}
	for _, s := range []struct {
		id       string
		required bool
		fn       func(*binio.Reader) error
	}{
		{secSoftFD, true, idx.DecodeAttachFD},
		{secPrimary, false, idx.DecodeAttachPrimary},
		{secOutliers, false, idx.DecodeAttachOutliers},
		{secLifecycle, false, idx.DecodeAttachLifecycle},
		{secColumns, false, idx.DecodeAttachColumns},
	} {
		if err := attach(sections, s.id, s.required, s.fn); err != nil {
			return nil, err
		}
	}
	if err := idx.FinishDecode(); err != nil {
		return nil, err
	}
	return idx, nil
}

// attach parses section id with fn, requiring the payload to be consumed
// exactly; an absent optional section is skipped.
func attach(sections map[string][]byte, id string, required bool, fn func(*binio.Reader) error) error {
	payload, ok := sections[id]
	if !ok {
		if required {
			return fmt.Errorf("snapshot: missing %q section", id)
		}
		return nil
	}
	br := binio.NewReader(payload)
	if err := fn(br); err != nil {
		return fmt.Errorf("snapshot: section %q: %w", id, err)
	}
	if err := br.Close(); err != nil {
		return fmt.Errorf("snapshot: section %q: %w", id, err)
	}
	return nil
}

// readFile checks the header and every section's checksum and returns the
// payloads by id, aliasing data. Duplicate ids are rejected.
func readFile(data []byte) (map[string][]byte, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version < 1 || version > 2 {
		return nil, fmt.Errorf("%w: file has version %d, this reader takes 1–2", ErrVersion, version)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	rest := data[16:]
	// The declared count is untrusted: it must not size an allocation.
	sections := make(map[string][]byte, min(count, 64))
	for i := uint32(0); i < count; i++ {
		if len(rest) < 12 {
			return nil, fmt.Errorf("%w: section %d header", ErrTruncated, i)
		}
		id := string(rest[:4])
		n := binary.LittleEndian.Uint64(rest[4:])
		if n > uint64(len(rest)-12) || uint64(len(rest)-12)-n < 4 {
			return nil, fmt.Errorf("%w: section %q declares %d payload bytes, %d remain", ErrTruncated, id, n, len(rest)-12)
		}
		payload := rest[12 : 12+n]
		want := binary.LittleEndian.Uint32(rest[12+n:])
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, fmt.Errorf("%w: section %q has CRC %#08x, want %#08x", ErrChecksum, id, got, want)
		}
		if _, dup := sections[id]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", id)
		}
		sections[id] = payload
		rest = rest[12+n+4:]
	}
	return sections, nil
}
