package mmapsnap

import (
	"testing"

	"github.com/coax-index/coax/internal/core"
)

// The benchmarks measure the point of the format: saving a built index is a
// sequential copy of its pages, and opening one costs O(directory), not
// O(rows):
//
//	go test ./internal/mmapsnap -run NONE -bench 'Encode|Open' -benchtime 5x

func benchRows() int {
	if testing.Short() {
		return 20000
	}
	return 200000
}

func BenchmarkEncode(b *testing.B) {
	idx := buildIndex(b, testTable(b, benchRows()), core.OutlierGrid)
	for _, compress := range []bool{false, true} {
		b.Run(map[bool]string{false: "raw", true: "compressed"}[compress], func(b *testing.B) {
			var blob []byte
			b.ReportAllocs()
			for range b.N {
				var err error
				if blob, err = EncodeIndex(idx, Options{Compress: compress}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(blob)))
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	idx := buildIndex(b, testTable(b, benchRows()), core.OutlierGrid)
	for _, compress := range []bool{false, true} {
		b.Run(map[bool]string{false: "raw", true: "compressed"}[compress], func(b *testing.B) {
			blob, err := EncodeIndex(idx, Options{Compress: compress})
			if err != nil {
				b.Fatal(err)
			}
			aligned := alignedBuffer(len(blob))
			copy(aligned, blob)
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			b.ResetTimer()
			for range b.N {
				if _, err := OpenBytes(aligned); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
