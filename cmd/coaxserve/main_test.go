package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/mmapsnap"
)

func testServer(t *testing.T) (*coax.Index, *httptest.Server) {
	t.Helper()
	idx := testIndex(t)
	return idx, serveFront(t, testBackend(idx), 0, nil)
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func f(v float64) *float64 { return &v }

func TestHealthzAndStats(t *testing.T) {
	idx, srv := testServer(t)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Rows != idx.Len() || st.Shards != idx.NumShards() || st.Dims != idx.Dims() {
		t.Errorf("stats = %+v, index = %d/%d/%d", st, idx.Len(), idx.NumShards(), idx.Dims())
	}
}

func TestQueryEndpoint(t *testing.T) {
	idx, srv := testServer(t)

	// Unconstrained query counts everything; default limit caps rows.
	var full queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{}, &full)
	if full.Count != idx.Len() {
		t.Errorf("full count = %d, want %d", full.Count, idx.Len())
	}
	if len(full.Rows) != defaultRowLimit {
		t.Errorf("default limit returned %d rows, want %d", len(full.Rows), defaultRowLimit)
	}

	// limit 0 means count only; the count must agree with the engine.
	lim := 0
	var countOnly queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &lim}, &countOnly)
	if countOnly.Count != idx.Len() || countOnly.Rows != nil {
		t.Errorf("count-only response: %+v", countOnly)
	}

	// A one-dimension window must match the engine's own answer.
	q := rectRequest{
		Min:   []*float64{nil, f(0), nil, nil},
		Max:   []*float64{nil, f(50000), nil, nil},
		Limit: &lim,
	}
	r := coax.FullRect(idx.Dims())
	r.Min[1], r.Max[1] = 0, 50000
	var window queryResponse
	postJSON(t, srv.URL+"/query", q, &window)
	if want, _ := coax.FromRect(r).Count(idx); window.Count != want {
		t.Errorf("window count = %d, want %d", window.Count, want)
	}

	// Malformed requests are 400s, not 500s.
	for _, bad := range []rectRequest{
		{Min: []*float64{f(1)}},                         // wrong dims
		{Max: []*float64{f(1), f(2), f(3), f(4), f(5)}}, // wrong dims
	} {
		if resp := postJSON(t, srv.URL+"/query", bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %+v: status %d", bad, resp.StatusCode)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	idx, srv := testServer(t)
	lim := 5
	zero := 0
	req := batchRequest{Queries: []rectRequest{
		{Limit: &zero},
		{Min: []*float64{nil, f(1e12), nil, nil}, Limit: &zero}, // matches nothing
		{Limit: &lim},
	}}
	var resp batchResponse
	postJSON(t, srv.URL+"/batch", req, &resp)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Count != idx.Len() {
		t.Errorf("batch[0] count = %d, want %d", resp.Results[0].Count, idx.Len())
	}
	if resp.Results[1].Count != 0 {
		t.Errorf("batch[1] count = %d, want 0", resp.Results[1].Count)
	}
	if resp.Results[2].Count != idx.Len() || len(resp.Results[2].Rows) != lim {
		t.Errorf("batch[2] = count %d rows %d, want count %d rows %d",
			resp.Results[2].Count, len(resp.Results[2].Rows), idx.Len(), lim)
	}

	// Oversized batches are rejected before they reach the engine.
	wide := batchRequest{Queries: make([]rectRequest, maxBatchQueries+1)}
	if r := postJSON(t, srv.URL+"/batch", wide, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch accepted: %d", r.StatusCode)
	}
}

func TestInsertEndpoint(t *testing.T) {
	idx, srv := testServer(t)
	before := idx.Len()
	var ok map[string]int
	postJSON(t, srv.URL+"/insert", insertRequest{Row: []float64{1, 2, 3, 4}}, &ok)
	if ok["rows"] != before+1 || idx.Len() != before+1 {
		t.Errorf("rows after insert = %d (engine %d), want %d", ok["rows"], idx.Len(), before+1)
	}
	// Wrong arity and non-finite values are rejected.
	if resp := postJSON(t, srv.URL+"/insert", insertRequest{Row: []float64{1}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short row accepted: %d", resp.StatusCode)
	}
	var naughty struct {
		Row []any `json:"row"`
	}
	naughty.Row = []any{1.0, "NaN", 3.0, 4.0}
	if resp := postJSON(t, srv.URL+"/insert", naughty, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric row accepted: %d", resp.StatusCode)
	}
}

// singleLayout builds a core index over tab and writes it to path as the
// single-index v3 file earlier releases wrote, compressed or not.
func singleLayout(t *testing.T, tab *coax.Table, path string, compress bool) *core.COAX {
	t.Helper()
	c, err := core.Build(tab, coax.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := mmapsnap.EncodeIndex(c, mmapsnap.Options{Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOpenIndexWrapsSingleSnapshot: a single-index file serves as one
// shard. A file of another format version fails at startup with an error
// naming coaxstore convert — the v2 fixture, and a v3 file whose version
// field is garbled — and a file that is not a snapshot fails too.
func TestOpenIndexWrapsSingleSnapshot(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(3000))
	dir := t.TempDir()
	path := dir + "/single.coax"
	singleLayout(t, tab, path, false)
	idx, _, err := openIndex(path, "", "", 0, 0, 2, 0)
	if err != nil {
		t.Fatalf("openIndex(single snapshot): %v", err)
	}
	if st := idx.BuildStats(); st.Shards != 1 || st.Rows != tab.Len() || st.Workers != 2 {
		t.Errorf("wrapped index: %d shards, %d rows, %d workers", st.Shards, st.Rows, st.Workers)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[8:], 0xdeadbeef)
	garbled, junk := dir+"/garbled.coax", dir+"/junk.coax"
	if err := os.WriteFile(garbled, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(junk, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../../internal/snapshot/testdata/osm600-2shard.v2", garbled} {
		if _, _, err := openIndex(bad, "", "", 0, 0, 2, 0); err == nil || !strings.Contains(err.Error(), "coaxstore convert") {
			t.Errorf("openIndex(%s) error = %v, want one naming coaxstore convert", bad, err)
		}
	}
	if _, _, err := openIndex(junk, "", "", 0, 0, 2, 0); err == nil {
		t.Error("openIndex served a file that is not a snapshot")
	}
}

// TestOpenIndexServesV3Snapshot covers serve mode's -in path for the v3
// memory-mapped format: openIndex must return a serving layer whose
// answers match the in-memory engine it was saved from, and /healthz
// version reporting must say 3.
func TestOpenIndexServesV3Snapshot(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(4000))
	for _, compress := range []bool{false, true} {
		path := fmt.Sprintf("%s/v3-%v.coax", t.TempDir(), compress)
		single := singleLayout(t, tab, path, compress)
		idx, sn, err := openIndex(path, "", "", 0, 0, 2, 0)
		if err != nil {
			t.Fatalf("openIndex(v3, compress=%v): %v", compress, err)
		}
		if idx.Len() != tab.Len() {
			t.Errorf("compress=%v: served %d rows, want %d", compress, idx.Len(), tab.Len())
		}
		r := coax.FullRect(tab.Dims())
		r.Max[0] = tab.Row(tab.Len() / 2)[0] // a real value: a nonempty partial rect
		nMapped, err := coax.FromRect(r).Count(idx)
		if err != nil {
			t.Fatal(err)
		}
		if nHeap := index.Count(single, r); nMapped != nHeap {
			t.Errorf("compress=%v: mapped count %d, heap %d", compress, nMapped, nHeap)
		}
		_, body := newLocalBackend(idx, sn, lifecycle.DefaultThresholds(), 0).health(true, 0)
		if h := body.(healthzResponse); h.SnapshotVersion != coax.SnapshotVersionV3 {
			t.Errorf("compress=%v: /healthz snapshot version %d, want %d", compress, h.SnapshotVersion, coax.SnapshotVersionV3)
		}
	}
}

// TestCorruptPageRefused is the regression test for serve mode dropping the
// Snapshot it opened: a compressed v3 page that fails its checksum reads as
// empty, and the server used to answer 200 with a short count. It must
// refuse instead — 500 with the checksum error, nothing cached, /healthz 503
// "corrupt", and a counted metric.
func TestCorruptPageRefused(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(4000))
	path := t.TempDir() + "/corrupt.v3"
	singleLayout(t, tab, path, true)
	// Flip a byte in the compressed data region, which Open does not read
	// (a flip in a plain section fails the open, as it should).
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mmapsnap.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, sec := range st.Sections {
		if sec.Compressed {
			blob[sec.Offset+sec.Len-9] ^= 0xff
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("snapshot has no compressed section")
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	idx, snap, err := openIndex(path, "", "", 0, 0, 2, 0)
	if err != nil {
		t.Fatalf("openIndex: %v", err)
	}
	defer snap.Close()
	srv := serveFront(t, newLocalBackend(idx, snap, coax.DefaultThresholds(), 0), 64, nil)

	_, before := scrape(t, srv.URL, "coax_snapshot_page_errors_total")
	zero := 0
	for _, q := range []any{
		rectRequest{Limit: &zero},
		rectRequest{Limit: &zero}, // again: the failure must not have been cached
		rectRequest{Agg: &aggRequest{Op: "count"}},
	} {
		var out queryResponse
		resp := postJSON(t, srv.URL+"/query", q, &out)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("query over a corrupt page: status %d, count %d of %d; want 500", resp.StatusCode, out.Count, tab.Len())
		}
	}
	if resp := postJSON(t, srv.URL+"/batch", batchRequest{Queries: []rectRequest{{Limit: &zero}}}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("batch over a corrupt page: status %d, want 500", resp.StatusCode)
	}
	if _, after := scrape(t, srv.URL, "coax_snapshot_page_errors_total"); after-before != 4 {
		t.Errorf("coax_snapshot_page_errors_total advanced by %v, want 4", after-before)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h["status"] != "corrupt" {
		t.Errorf("/healthz = %d %v, want 503 corrupt", resp.StatusCode, h)
	}
}

// TestMutationOnCorruptPage is the regression test for mutation acks that
// went out without a look at the page-error latch: /delete finds its row by
// reading the row's page, a page that fails its checksum holds no match, and
// the client was told 404 about a row that exists — only the next read
// turned into a 500. A mutation that lands on an unreadable page is refused
// like a read (500, counted, nothing applied), and so is every one after it.
func TestMutationOnCorruptPage(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(4000))
	path := t.TempDir() + "/corrupt.v3"
	single := singleLayout(t, tab, path, true)
	// The primary grid's pages are laid out in cell order, so the last byte
	// of its data region belongs to the last non-empty cell: take two rows
	// of that cell, then flip a byte inside its page blob.
	var victims [][]float64
	single.Primary().CellPages(func(_ int, page []float64) {
		if len(page) >= 2*tab.Dims() {
			victims = [][]float64{
				append([]float64(nil), page[:tab.Dims()]...),
				append([]float64(nil), page[len(page)-tab.Dims():]...),
			}
		}
	})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mmapsnap.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range st.Sections {
		if sec.ID == "pgr3" {
			blob[sec.Offset+sec.Len-9] ^= 0xff
		}
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	idx, snap, err := openIndex(path, "", "", 0, 0, 2, 0)
	if err != nil {
		t.Fatalf("openIndex: %v", err)
	}
	defer snap.Close()
	srv := serveFront(t, newLocalBackend(idx, snap, coax.DefaultThresholds(), 0), 64, nil)

	row := func(r []float64) string {
		b, _ := json.Marshal(r)
		return string(b)
	}
	_, before := scrape(t, srv.URL, "coax_snapshot_page_errors_total")
	rows := []confRow{
		// A row the index does not hold, routed to a healthy page: absent.
		{name: "delete an absent row", path: "/delete", body: `{"row":[-5,-5,-5,-5]}`, local: 404},
		{name: "delete a row of the corrupt page", path: "/delete", body: `{"row":` + row(victims[0]) + `}`, local: 500},
		{name: "update a row of the corrupt page", path: "/update", body: `{"old":` + row(victims[1]) + `,"new":[1,2,3,4]}`, local: 500},
		{name: "insert after the latch", path: "/insert", body: `{"row":[1,2,3,4]}`, local: 500},
		{name: "delete an absent row after the latch", path: "/delete", body: `{"row":[-5,-5,-5,-5]}`, local: 500},
		{name: "query after the latch", path: "/query", body: `{"limit":0}`, local: 500},
	}
	for _, r := range rows {
		if got := do(t, srv.URL, r); got.status != r.local {
			t.Errorf("%s: status %d, want %d (%s)", r.name, got.status, r.local, got.body)
		}
	}
	if _, after := scrape(t, srv.URL, "coax_snapshot_page_errors_total"); after-before != 5 {
		t.Errorf("coax_snapshot_page_errors_total advanced by %v, want 5", after-before)
	}
	if idx.Len() != tab.Len() {
		t.Errorf("refused mutations changed the row count: %d, want %d", idx.Len(), tab.Len())
	}
}

// TestQueryValidationRejectsInvertedBounds is the regression test for the
// v2 validation rule: a rectangle whose min exceeds its max on any
// dimension would silently match nothing, so it is rejected with a 400.
func TestQueryValidationRejectsInvertedBounds(t *testing.T) {
	_, srv := testServer(t)
	bad := rectRequest{
		Min: []*float64{nil, f(100), nil, nil},
		Max: []*float64{nil, f(50), nil, nil},
	}
	if resp := postJSON(t, srv.URL+"/query", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("inverted bounds accepted with status %d", resp.StatusCode)
	}
	// The same rule holds inside a batch.
	wide := batchRequest{Queries: []rectRequest{{}, bad}}
	if resp := postJSON(t, srv.URL+"/batch", wide, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batched inverted bounds accepted with status %d", resp.StatusCode)
	}
}

// TestQueryExplain exercises the explain=true flag: the response gains an
// execution report showing the fan-out and scan counters.
func TestQueryExplain(t *testing.T) {
	idx, srv := testServer(t)
	lim := 0
	var resp queryResponse
	postJSON(t, srv.URL+"/query?explain=true", rectRequest{Limit: &lim}, &resp)
	if resp.Explain == nil {
		t.Fatal("explain=true returned no report")
	}
	exp := resp.Explain
	if exp.ShardsProbed+exp.ShardsPruned != idx.NumShards() {
		t.Errorf("explain shards probed %d + pruned %d, want %d total",
			exp.ShardsProbed, exp.ShardsPruned, idx.NumShards())
	}
	if got := exp.Primary.RowsMatched + exp.Outlier.RowsMatched; got != int64(idx.Len()) {
		t.Errorf("explain matched %d rows, index holds %d", got, idx.Len())
	}
	if !exp.Complete {
		t.Error("full scan reported incomplete")
	}

	// Without the flag there is no report.
	var plain queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &lim}, &plain)
	if plain.Explain != nil {
		t.Error("explain report returned without explain=true")
	}

	// Batch explain: one report per query.
	var batch batchResponse
	postJSON(t, srv.URL+"/batch?explain=true", batchRequest{Queries: []rectRequest{{Limit: &lim}, {Limit: &lim}}}, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("%d batch results, want 2", len(batch.Results))
	}
	for i, res := range batch.Results {
		if res.Explain == nil {
			t.Errorf("batch[%d] has no explain report", i)
		}
	}
}

// TestQueryEarlyTermination exercises "early": true — the scan stops once
// limit rows are found, and the count reflects the rows returned.
func TestQueryEarlyTermination(t *testing.T) {
	idx, srv := testServer(t)
	lim := 7
	var resp queryResponse
	postJSON(t, srv.URL+"/query?explain=true", rectRequest{Limit: &lim, Early: true}, &resp)
	if resp.Count != lim || len(resp.Rows) != lim {
		t.Fatalf("early query = count %d, %d rows; want %d of an index of %d",
			resp.Count, len(resp.Rows), lim, idx.Len())
	}
	if resp.Explain == nil || !resp.Explain.Limited || resp.Explain.Complete {
		t.Errorf("early explain = %+v, want limited incomplete", resp.Explain)
	}
}
