package main

// Tests for the /query aggregation surface: pushdown answers match a
// rows-collected fold, grouped results come back sorted, cache keys keep
// agg and row answers apart, invalid shapes are 400s, and /batch rejects
// aggregates outright.

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"github.com/coax-index/coax/coax"
)

func postAgg(t *testing.T, url string, q rectRequest) (queryResponse, *http.Response) {
	t.Helper()
	var out queryResponse
	resp := postJSON(t, url+"/query", q, &out)
	return out, resp
}

func TestQueryAggEndToEnd(t *testing.T) {
	idx, srv := testServerHardened(t, 256, nil)

	// Baseline: collect every row, fold in the test.
	var all queryResponse
	neg := -1
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &neg}, &all)
	var sum float64
	for _, row := range all.Rows {
		sum += row[3] // lon
	}

	count, resp := postAgg(t, srv.URL, rectRequest{Agg: &aggRequest{Op: "count"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d", resp.StatusCode)
	}
	if count.Agg == nil || count.Agg.Count != int64(idx.Len()) || count.Count != idx.Len() {
		t.Fatalf("count response %+v, want %d rows", count.Agg, idx.Len())
	}
	if len(count.Rows) != 0 {
		t.Fatal("aggregate response carried rows")
	}
	if !count.Agg.Complete || count.Agg.Value == nil || *count.Agg.Value != float64(idx.Len()) {
		t.Fatalf("count agg %+v", count.Agg)
	}

	col := "lon"
	sumResp, _ := postAgg(t, srv.URL, rectRequest{Agg: &aggRequest{Op: "sum", Col: &col}})
	if sumResp.Agg == nil || sumResp.Agg.Value == nil {
		t.Fatalf("sum response %+v", sumResp.Agg)
	}
	if rel := math.Abs(*sumResp.Agg.Value-sum) / math.Max(math.Abs(sum), 1); rel > 1e-9 {
		t.Fatalf("sum %v vs folded %v", *sumResp.Agg.Value, sum)
	}

	// The agg answer must be cached under a key distinct from the row
	// query's: re-ask both and check neither shape bleeds into the other.
	again, _ := postAgg(t, srv.URL, rectRequest{Agg: &aggRequest{Op: "count"}})
	if again.Agg == nil || again.Agg.Count != count.Agg.Count {
		t.Fatalf("cached agg replay %+v, want %+v", again.Agg, count.Agg)
	}
	var rowsAgain queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &neg}, &rowsAgain)
	if rowsAgain.Agg != nil || rowsAgain.Count != all.Count {
		t.Fatal("row query answered from an agg cache line")
	}
}

func TestQueryAggGroupBy(t *testing.T) {
	_, srv := testServerHardened(t, 0, nil)

	dim, group := 3, 2 // avg(lon) grouped by lat: not meaningful, but exercises dims
	res, resp := postAgg(t, srv.URL, rectRequest{
		Agg: &aggRequest{Op: "avg", Dim: &dim, GroupByDim: &group},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("group-by status %d", resp.StatusCode)
	}
	if res.Agg == nil || len(res.Agg.Groups) == 0 {
		t.Fatalf("grouped response %+v", res.Agg)
	}
	if res.Agg.Value != nil {
		t.Fatal("grouped response carried an ungrouped value")
	}
	prev := math.Inf(-1)
	var n int64
	for _, g := range res.Agg.Groups {
		if g.Key <= prev {
			t.Fatalf("group keys not ascending: %g after %g", g.Key, prev)
		}
		prev = g.Key
		n += g.Count
	}
	if n != res.Agg.Count {
		t.Fatalf("group counts sum to %d, total says %d", n, res.Agg.Count)
	}
}

func TestQueryAggExplain(t *testing.T) {
	_, srv := testServerHardened(t, 0, nil)
	var out queryResponse
	col := "lon"
	postJSON(t, srv.URL+"/query?explain=true", rectRequest{Agg: &aggRequest{Op: "sum", Col: &col}}, &out)
	if out.Explain == nil || out.Explain.Agg == nil {
		t.Fatalf("explain missing agg section: %+v", out.Explain)
	}
	a := out.Explain.Agg
	if a.Op != "sum" || a.Column != "lon" || a.PrimaryKernel == "" || a.Batches == 0 {
		t.Fatalf("agg explain %+v", a)
	}
}

// TestQueryExplainColumnTests: ?explain=true carries each partition's
// kernel column tests as column_tests — present when a page had a column
// its cell did not prove, omitted for the full rectangle, which tests none.
func TestQueryExplainColumnTests(t *testing.T) {
	_, srv := testServerHardened(t, 0, nil)
	lat := coax.GenerateOSM(coax.DefaultOSMConfig(8000)).Row(0)[2]
	zero := 0
	for _, tc := range []struct {
		name string
		req  rectRequest
		want bool
	}{
		{"lat from a row's value", rectRequest{Min: []*float64{nil, nil, &lat, nil}, Max: make([]*float64, 4), Limit: &zero}, true},
		{"full", rectRequest{Limit: &zero}, false},
	} {
		var out struct {
			Explain struct {
				Primary map[string]json.RawMessage `json:"primary"`
			} `json:"explain"`
		}
		postJSON(t, srv.URL+"/query?explain=true", tc.req, &out)
		p := out.Explain.Primary
		if _, ok := p["column_tests"]; len(p) == 0 || ok != tc.want {
			t.Fatalf("%s: primary explain %v, want column_tests present: %v", tc.name, p, tc.want)
		}
	}
}

func TestQueryAggBadRequests(t *testing.T) {
	_, srv := testServerHardened(t, 0, nil)
	col, bad := "lon", "nope"
	one := 1
	cases := []rectRequest{
		{Agg: &aggRequest{Op: "sum"}},                             // sum needs a column
		{Agg: &aggRequest{Op: "frobnicate"}},                      // unknown op
		{Agg: &aggRequest{Op: "count", Col: &col}},                // count takes none
		{Agg: &aggRequest{Op: "sum", Col: &bad}},                  // unknown column
		{Agg: &aggRequest{Op: "count"}, Early: true, Limit: &one}, // early ∧ agg
	}
	for i, q := range cases {
		if resp := postJSON(t, srv.URL+"/query", q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// /batch rejects aggregates.
	b := batchRequest{Queries: []rectRequest{{Agg: &aggRequest{Op: "count"}}}}
	if resp := postJSON(t, srv.URL+"/batch", b, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/batch with agg: status %d, want 400", resp.StatusCode)
	}
}

// TestQueryAggMatchesLibrary pins the HTTP path to the library path.
func TestQueryAggMatchesLibrary(t *testing.T) {
	idx, srv := testServerHardened(t, 0, nil)
	col := "lat"
	lo, hi := 46.0, 49.0
	q := rectRequest{
		Min: []*float64{nil, nil, f(lo), nil},
		Max: []*float64{nil, nil, f(hi), nil},
		Agg: &aggRequest{Op: "min", Col: &col},
	}
	got, _ := postAgg(t, srv.URL, q)
	r := coax.FullRect(4)
	r.Min[2], r.Max[2] = lo, hi
	want, err := coax.FromRect(r).Aggregate(idx, coax.Min("lat"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Agg == nil || got.Agg.Count != want.Count {
		t.Fatalf("HTTP %+v vs library %+v", got.Agg, want)
	}
	if want.Valid != (got.Agg.Value != nil) ||
		(want.Valid && math.Float64bits(*got.Agg.Value) != math.Float64bits(want.Value)) {
		t.Fatalf("HTTP min %v vs library %v", got.Agg.Value, want.Value)
	}
}
