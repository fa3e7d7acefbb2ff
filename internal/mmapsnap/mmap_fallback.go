//go:build !unix

package mmapsnap

import (
	"os"
)

// mapping on platforms without mmap support is an aligned heap buffer; the
// format still opens and serves identical answers, only without the
// page-cache-backed zero-copy benefit.
type mapping struct {
	data []byte
}

func (m *mapping) close() error {
	m.data = nil
	return nil
}

// OpenFile opens a version-3 snapshot by reading it into a 64-byte-aligned
// heap buffer — the graceful fallback for platforms without mmap.
func OpenFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := readAligned(f, st.Size())
	if err != nil {
		return nil, err
	}
	m := &mapping{data: data}
	sn, err := openBlob(m.data, m, false)
	if err != nil {
		return nil, err
	}
	return sn, nil
}
