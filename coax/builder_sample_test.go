package coax_test

import (
	"testing"

	"github.com/coax-index/coax/coax"
)

// TestSampledFDDegradationBounded quantifies what sampling costs: at 1%
// and 10% sample rates on the OSM- and airline-style workloads, detection
// must still find every correlation group, and the outlier ratio — the
// fraction of rows the weaker sampled models push into the slow path —
// must stay within a small absolute and relative band of the full-scan
// build (measured headroom ≈ 2× the observed drift).
func TestSampledFDDegradationBounded(t *testing.T) {
	const (
		rows      = 60000
		absSlack  = 0.05 // outlier-ratio drift allowed in absolute terms
		relFactor = 1.6  // ...and relative to the full-scan ratio
	)

	type workload struct {
		name   string
		tab    *coax.Table
		source func(chunk int) coax.RowSource
	}
	osmCfg := coax.DefaultOSMConfig(rows)
	airCfg := coax.DefaultAirlineConfig(rows)
	workloads := []workload{
		{"osm", coax.GenerateOSM(osmCfg),
			func(chunk int) coax.RowSource { return coax.NewOSMSource(osmCfg, chunk) }},
		{"airline", coax.GenerateAirline(airCfg),
			func(chunk int) coax.RowSource { return coax.NewAirlineSource(airCfg, chunk) }},
	}

	for _, w := range workloads {
		opt := coax.DefaultOptions()
		fs := build(t, w.tab, opt, 1).BuildStats()
		fullRatio := float64(fs.OutlierRows) / float64(fs.Rows)

		for _, rate := range []float64{0.01, 0.10} {
			k := int(float64(rows) * rate)
			idx, err := coax.NewBuilder(coax.TableSchema(w.tab), opt).
				SampleSize(k).
				Build(w.source(4096))
			if err != nil {
				t.Fatalf("%s@%g: %v", w.name, rate, err)
			}
			s := idx.BuildStats()
			if len(s.Groups) != len(fs.Groups) {
				t.Errorf("%s@%g: detected %d groups, full scan finds %d",
					w.name, rate, len(s.Groups), len(fs.Groups))
			}
			ratio := float64(s.OutlierRows) / float64(s.Rows)
			if ratio > fullRatio+absSlack {
				t.Errorf("%s@%g: outlier ratio %.4f exceeds full-scan %.4f + %.2f",
					w.name, rate, ratio, fullRatio, absSlack)
			}
			if ratio > fullRatio*relFactor {
				t.Errorf("%s@%g: outlier ratio %.4f exceeds %.1f× full-scan %.4f",
					w.name, rate, ratio, relFactor, fullRatio)
			}
			// Exactness is non-negotiable at any sample rate.
			if got, want := count(t, idx, coax.FullRect(w.tab.Dims())), w.tab.Len(); got != want {
				t.Errorf("%s@%g: index holds %d rows, want %d", w.name, rate, got, want)
			}
		}
	}
}
