package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/softfd"
)

// TestBuildWithFDDeterministic: two builds of one table write identical v3
// snapshots, and those bytes are pinned: the SHA-256 of EncodeIndex, raw
// and compressed, over a 20 k-row airline and a 20 k-row OSM build. A
// change that moves the format, the layout or the outlier chooser's pick
// must update these digests on purpose. It lives outside package core
// because mmapsnap imports core.
func TestBuildWithFDDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tab      *dataset.Table
		raw, zip string
	}{
		{"airline", dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000)),
			"81a48d4776a7da5932377fafea24d0fb4d17fdf6526aa745c5634e7efcb0e23a",
			"142f05bd15f105e6679cee82db506342c66f086baa55e287a0c2902ffe64e9ee"},
		{"osm", dataset.GenerateOSM(dataset.DefaultOSMConfig(20000)),
			"0fa99a794ed01c620da73b6e93f76c99f31ea8c0b418ddf039c1788bb235f135",
			"85aa87ffecab7fbc39fdcb0feff1660e5e737874fdd3318cd071c5f1776a9d44"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd, err := softfd.Detect(tc.tab, core.DefaultOptions().SoftFD)
			if err != nil {
				t.Fatal(err)
			}
			var enc [2][]byte
			for i := range enc {
				c, err := core.BuildWithFD(tc.tab, fd, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				// Both partitions must be populated — the outliers past two
				// 32-row outlier pages — or one of them goes untested.
				if st := c.BuildStats(); st.PrimaryRows == 0 || st.OutlierRows < 64 {
					t.Fatalf("split %d/%d leaves a partition untested", st.PrimaryRows, st.OutlierRows)
				}
				if enc[i], err = mmapsnap.EncodeIndex(c, mmapsnap.Options{}); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					zip, err := mmapsnap.EncodeIndex(c, mmapsnap.Options{Compress: true})
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprintf("%x", sha256.Sum256(zip)); got != tc.zip {
						t.Errorf("compressed v3 SHA-256 %s, want %s", got, tc.zip)
					}
				}
			}
			if !bytes.Equal(enc[0], enc[1]) {
				t.Error("two builds of one table encode differently")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(enc[0])); got != tc.raw {
				t.Errorf("raw v3 SHA-256 %s, want %s", got, tc.raw)
			}
		})
	}
}
