package core_test

import (
	"bytes"
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/mmapsnap"
	"github.com/coax-index/coax/internal/softfd"
)

// TestBuildWithFDDeterministic: two builds of one table write identical v3
// snapshots, with grid outliers (whose layout the cost model chooses) and
// with R-tree outliers. It lives outside package core because mmapsnap
// imports core.
func TestBuildWithFDDeterministic(t *testing.T) {
	tab := dataset.GenerateAirline(dataset.DefaultAirlineConfig(20000))
	fd, err := softfd.Detect(tab, core.DefaultOptions().SoftFD)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.OutlierIndexKind{core.OutlierGrid, core.OutlierRTree} {
		opt := core.DefaultOptions()
		opt.OutlierKind = kind
		var enc [2][]byte
		for i := range enc {
			c, err := core.BuildWithFD(tab, fd, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Both partitions must be populated — the outliers past two
			// 32-row outlier pages — or one of them goes untested.
			if st := c.BuildStats(); st.PrimaryRows == 0 || st.OutlierRows < 64 {
				t.Fatalf("kind %d: split %d/%d leaves a partition untested", kind, st.PrimaryRows, st.OutlierRows)
			}
			if enc[i], err = mmapsnap.EncodeIndex(c, mmapsnap.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("kind %d: two builds of one table encode differently", kind)
		}
	}
}
