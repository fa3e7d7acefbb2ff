//go:build unix

package mmapsnap

import (
	"fmt"
	"os"
	"syscall"
)

// mapping owns the backing memory of an opened snapshot file: a read-only
// mmap on unix platforms. The mapping survives closing the file
// descriptor, and page-cache residency — not heap — is what holds the row
// data, which is the whole point of the format.
type mapping struct {
	data  []byte
	mmapd bool
}

func (m *mapping) close() error {
	if !m.mmapd || m.data == nil {
		m.data = nil
		return nil
	}
	data := m.data
	m.data = nil
	return syscall.Munmap(data)
}

// mapFile maps f read-only. On any mmap failure (exotic filesystems,
// resource limits) it falls back to an aligned heap read, so OpenFile
// works everywhere — just without the zero-copy benefit.
func mapFile(f *os.File, size int64) (*mapping, bool, error) {
	if size > int64(int(^uint(0)>>1)) {
		return nil, false, fmt.Errorf("mmapsnap: file of %d bytes exceeds address space", size)
	}
	if size > 0 {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			return &mapping{data: data, mmapd: true}, true, nil
		}
	}
	data, err := readAligned(f, size)
	if err != nil {
		return nil, false, err
	}
	return &mapping{data: data}, false, nil
}

// OpenFile opens a version-3 snapshot file, mapping it when the platform
// allows and falling back to an aligned heap read otherwise. The returned
// snapshot must be Closed when no longer in use.
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
	m, mapped, err := mapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	sn, err := openBlob(m.data, m, mapped)
	if err != nil {
		m.close()
		return nil, err
	}
	return sn, nil
}
