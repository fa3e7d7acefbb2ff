// OSM scenario: geospatial points whose id and timestamp attributes are
// strongly correlated (node ids are assigned in creation order). COAX
// learns the id→timestamp dependency, so time-window queries ride the id
// index instead of needing their own dimension.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/coax-index/coax/coax"
)

func main() {
	fmt.Println("generating synthetic OSM data (500k nodes: id, timestamp, lat, lon)...")
	table := coax.GenerateOSM(coax.DefaultOSMConfig(500000))

	idx, err := coax.NewBuilder(coax.TableSchema(table), coax.DefaultOptions()).Build(coax.NewTableSource(table, 0))
	if err != nil {
		log.Fatal(err)
	}
	count := func(q coax.Rect) int {
		n, err := coax.FromRect(q).Count(idx)
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	st := idx.BuildStats()
	fmt.Printf("detected groups: %d; primary ratio %.1f%%; grid dims %d\n",
		len(st.Groups), st.PrimaryRatio*100, st.GridDims)

	// Spatial box around a metro area, restricted to an edit-time window.
	// The timestamp constraint is translated onto the id axis.
	q := coax.FullRect(4)
	q.Min[2], q.Max[2] = 40.5, 41.0   // latitude band
	q.Min[3], q.Max[3] = -74.5, -73.5 // longitude band
	tsMax := table.Row(table.Len() - 1)[1]
	q.Min[1], q.Max[1] = tsMax*0.25, tsMax*0.35 // a 10% slice of history

	start := time.Now()
	n := count(q)
	fmt.Printf("nodes in the box edited during that window: %d (%v)\n", n, time.Since(start))

	// Pure spatial query (no correlated attribute involved).
	q2 := coax.FullRect(4)
	q2.Min[2], q2.Max[2] = 42.2, 42.6
	q2.Min[3], q2.Max[3] = -71.3, -70.8
	start = time.Now()
	n = count(q2)
	fmt.Printf("nodes in the Boston box: %d (%v)\n", n, time.Since(start))

	// Recent-history query via the dependent attribute only.
	q3 := coax.FullRect(4)
	q3.Min[1] = tsMax * 0.95
	start = time.Now()
	n = count(q3)
	fmt.Printf("nodes edited in the newest 5%% of history: %d (%v)\n", n, time.Since(start))
}
