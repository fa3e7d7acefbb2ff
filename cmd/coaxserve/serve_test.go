package main

// Tests for the serving-tier hardening layer as mounted on the HTTP
// surface: result-cache hits and mutation invalidation end to end, 429
// shedding with Retry-After, the early+non-positive-limit rejection, the
// unknown-snapshot-version report, and the response-encode error counter.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/serve"
)

// testServerHardened is testServer with the hardening layer switched on.
func testServerHardened(t *testing.T, cacheSize int, adm *serve.Admission) (*coax.Index, *httptest.Server) {
	t.Helper()
	idx := testIndex(t)
	return idx, serveFront(t, testBackend(idx), cacheSize, adm)
}

func getStats(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// A repeated query is served from cache; a write outside its rectangle
// leaves it cached, byte for byte what an uncached server answers; a write
// inside it evicts it and the next response reflects the new data; a
// compaction evicts it too — the end-to-end stale-answer check.
func TestQueryCacheEndToEnd(t *testing.T) {
	idx, srv := testServerHardened(t, 256, nil)
	uncached := serveFront(t, testBackend(idx), 0, nil)

	one := 1
	var first queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &one}, &first)
	if first.Count != idx.Len() || len(first.Rows) != 1 {
		t.Fatalf("seed query: count %d rows %d", first.Count, len(first.Rows))
	}

	var second queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &one}, &second)
	if second.Count != first.Count {
		t.Fatalf("repeat query count %d, want %d", second.Count, first.Count)
	}
	st := getStats(t, srv.URL)
	if st.Cache == nil {
		t.Fatal("/stats has no cache section with the cache enabled")
	}
	if st.Cache.Hits < 1 || st.Cache.Entries < 1 {
		t.Fatalf("cache stats after repeat = %+v, want ≥1 hit and ≥1 entry", *st.Cache)
	}

	// Insert a duplicate of a live row: the full-rect entry must be
	// invalidated, not served, and the new count must include the insert.
	row := first.Rows[0]
	postJSON(t, srv.URL+"/insert", insertRequest{Row: row}, nil)
	var third queryResponse
	postJSON(t, srv.URL+"/query", rectRequest{Limit: &one}, &third)
	if third.Count != first.Count+1 {
		t.Fatalf("post-insert count %d, want %d (stale cache answer?)", third.Count, first.Count+1)
	}
	if st := getStats(t, srv.URL); st.Cache.StaleEvictions < 1 {
		t.Fatalf("no stale eviction recorded after mutation: %+v", *st.Cache)
	}

	// A latitude band: rows outside it leave its answer alone.
	band := confRow{path: "/query", body: `{"min":[null,null,40,null],"max":[null,null,41,null],"limit":50}`}
	cached := do(t, srv.URL, band)
	if cached.status != http.StatusOK {
		t.Fatalf("band query: status %d: %s", cached.status, cached.body)
	}
	inside := append([]float64(nil), row...)
	inside[2] = 40.5
	outside := append([]float64(nil), row...)
	outside[2] = 45
	before := getStats(t, srv.URL).Cache
	postJSON(t, srv.URL+"/insert", insertRequest{Row: outside}, nil)
	hit := do(t, srv.URL, band)
	after := getStats(t, srv.URL).Cache
	if after.Hits != before.Hits+1 || after.Revalidations != before.Revalidations+1 {
		t.Fatalf("band query after an insert outside it: cache %+v, was %+v; want one more hit and revalidation", *after, *before)
	}
	if fresh := do(t, uncached.URL, band); !bytes.Equal(hit.body, fresh.body) || !bytes.Equal(hit.body, cached.body) {
		t.Fatalf("revalidated reply differs from an uncached compute:\n%s\nfresh:\n%s", hit.body, fresh.body)
	}
	if _, n := scrape(t, srv.URL, "coax_cache_revalidations_total"); n < 1 {
		t.Errorf("coax_cache_revalidations_total = %v after a revalidated hit", n)
	}

	var was, now queryResponse
	if err := json.Unmarshal(cached.body, &was); err != nil || was.Count == 0 {
		t.Fatalf("band reply: %v, count %d; want rows", err, was.Count)
	}
	postJSON(t, srv.URL+"/insert", insertRequest{Row: inside}, nil)
	postJSON(t, srv.URL+"/query", json.RawMessage(band.body), &now)
	if now.Count != was.Count+1 {
		t.Fatalf("band count after an insert inside it: %d, want %d", now.Count, was.Count+1)
	}

	// A compaction reorders rows: every entry misses after it.
	before = getStats(t, srv.URL).Cache
	if resp := postJSON(t, srv.URL+"/compact?force=true", struct{}{}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/compact: status %d", resp.StatusCode)
	}
	do(t, srv.URL, band)
	if after := getStats(t, srv.URL).Cache; after.Misses != before.Misses+1 || after.StaleEvictions != before.StaleEvictions+1 {
		t.Fatalf("band query after /compact: cache %+v, was %+v; want one more miss and stale eviction", *after, *before)
	}

	// Explain requests bypass the cache and still carry a report.
	var explained queryResponse
	postJSON(t, srv.URL+"/query?explain=true", rectRequest{Limit: &one}, &explained)
	if explained.Explain == nil {
		t.Fatal("explain=true response has no report")
	}
}

// With one execution slot held and no queue, /query and /batch shed with
// 429 and a Retry-After hint; releasing the slot restores service.
func TestAdmissionSheds429(t *testing.T) {
	adm := serve.NewAdmission(1, 0, 50*time.Millisecond)
	_, srv := testServerHardened(t, 0, adm)

	if err := adm.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/query", rectRequest{}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/query under overload: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	resp = postJSON(t, srv.URL+"/batch", batchRequest{Queries: []rectRequest{{}}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/batch under overload: status %d, want 429", resp.StatusCode)
	}
	adm.Release()

	var ok queryResponse
	if resp := postJSON(t, srv.URL+"/query", rectRequest{}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
	st := getStats(t, srv.URL)
	if st.Admission == nil || st.Admission.MaxInflight != 1 {
		t.Fatalf("/stats admission section = %+v", st.Admission)
	}
}

// Regression: "early": true used to be silently ignored when the limit was
// not positive (the engine only arms early termination for limit > 0). It
// is now a 400 on /query and on each /batch element.
func TestEarlyRequiresPositiveLimit(t *testing.T) {
	_, srv := testServer(t)

	zero, neg, seven := 0, -1, 7
	for _, q := range []rectRequest{
		{Early: true, Limit: &zero},
		{Early: true, Limit: &neg},
	} {
		if resp := postJSON(t, srv.URL+"/query", q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("early with limit %d: status %d, want 400", *q.Limit, resp.StatusCode)
		}
	}
	// A positive limit stays valid, as does early with the default limit.
	var ok queryResponse
	if resp := postJSON(t, srv.URL+"/query", rectRequest{Early: true, Limit: &seven}, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("early with limit 7: status %d", resp.StatusCode)
	}
	if ok.Count != 7 || len(ok.Rows) != 7 {
		t.Errorf("early response count %d rows %d, want 7/7", ok.Count, len(ok.Rows))
	}

	b := batchRequest{Queries: []rectRequest{{Limit: &seven}, {Early: true, Limit: &zero}}}
	if resp := postJSON(t, srv.URL+"/batch", b, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with early+limit=0 element: status %d, want 400", resp.StatusCode)
	}
}

// sortedReply is a /query or /batch reply with the rows of every result
// sorted, so replies compare as multisets.
func sortedReply(t *testing.T, body []byte) []byte {
	t.Helper()
	var b batchResponse
	if err := json.Unmarshal(body, &b); err != nil {
		t.Errorf("reply is not JSON: %v: %.200s", err, body)
		return nil
	}
	if b.Results == nil {
		b.Results = make([]queryResponse, 1)
		if err := json.Unmarshal(body, &b.Results[0]); err != nil {
			t.Errorf("reply is not JSON: %v: %.200s", err, body)
			return nil
		}
	}
	for _, res := range b.Results {
		sort.Slice(res.Rows, func(i, j int) bool { return slices.Compare(res.Rows[i], res.Rows[j]) < 0 })
	}
	sorted, err := json.Marshal(b)
	if err != nil {
		t.Errorf("re-encoding the reply: %v", err)
	}
	return sorted
}

// Cached bodies are shared by every goroutine that hits them, while misses
// next to them encode into pooled scratch buffers: under concurrent hits,
// misses, evictions and coalescing every reply must still carry exactly what
// an idle server's does.
func TestConcurrentRepliesAreStable(t *testing.T) {
	idx := testIndex(t)
	var rows []confRow
	for i := 0; i < 24; i++ {
		rows = append(rows, confRow{path: "/query", body: fmt.Sprintf(`{"min":[null,%d,null,null],"max":[null,%d,null,null],"limit":-1}`, i*500, i*500+1500)})
	}
	rows = append(rows,
		confRow{path: "/query", body: `{"agg":{"op":"max","dim":3,"group_by_dim":2},"max":[null,200,null,null]}`},
		confRow{path: "/batch", body: `{"queries":[{"limit":0},{"min":[null,500,null,null],"max":[null,900,null,null],"limit":-1}]}`})
	idle := serveFront(t, testBackend(idx), 0, nil)
	want := make([][]byte, len(rows))
	for i, row := range rows {
		got := do(t, idle.URL, row)
		if got.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", row.body, got.status, got.body)
		}
		want[i] = sortedReply(t, got.body)
	}

	// 16 entries, one per stripe: two dozen keys keep evicting each other.
	srv := serveFront(t, testBackend(idx), 16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 40; n++ {
				i := rng.Intn(len(rows))
				if got := do(t, srv.URL, rows[i]); got.status != http.StatusOK || !bytes.Equal(sortedReply(t, got.body), want[i]) {
					t.Errorf("%s: status %d, reply differs from the idle server's", rows[i].body, got.status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cs := getStats(t, srv.URL).Cache; cs.Hits == 0 || cs.LRUEvictions == 0 {
		t.Errorf("the run was meant to mix hits and evictions: %+v", *cs)
	}
}

// Regression: a SUM that overflows to +Inf has no JSON form. It used to reach
// the client as a 200 with an empty body (the status line went out before
// the encoder failed) and that answer was cached; it is a 500 that says
// which aggregate overflowed, counted, and computed afresh each time.
func TestNonFiniteAggregateIs500(t *testing.T) {
	_, srv := testServerHardened(t, 256, nil)
	huge := [][]float64{{900001, 1, 40, 1.7e308}, {900002, 2, 41, 1.7e308}}
	for _, row := range huge {
		if resp := postJSON(t, srv.URL+"/insert", insertRequest{Row: row}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert: status %d", resp.StatusCode)
		}
	}
	before := httpRespErrors.Value()
	sum := confRow{path: "/query", body: `{"agg":{"op":"sum","dim":3}}`}
	for attempt := 1; attempt <= 2; attempt++ {
		got := do(t, srv.URL, sum)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(got.body, &e); got.status != http.StatusInternalServerError || err != nil ||
			!strings.Contains(e.Error, "sum over dim 3 overflowed") {
			t.Fatalf("attempt %d: status %d, body %q; want 500 naming the overflowed aggregate", attempt, got.status, got.body)
		}
	}
	if got := httpRespErrors.Value() - before; got != 2 {
		t.Errorf("response-error counter advanced by %v, want 2", got)
	}
	if cs := getStats(t, srv.URL).Cache; cs.Hits != 0 || cs.Entries != 0 {
		t.Errorf("the failed answer was cached: %+v", *cs)
	}
	// The same aggregate answers again once it is representable.
	if resp := postJSON(t, srv.URL+"/delete", insertRequest{Row: huge[0]}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if got := do(t, srv.URL, sum); got.status != http.StatusOK || !bytes.HasPrefix(got.body, []byte(`{"count":8001,"agg":{"op":"sum"`)) {
		t.Fatalf("after the delete: status %d, body %s", got.status, got.body)
	}
}

// Regression: writeJSON used to discard encoding errors. An unencodable
// value must land in coax_http_response_errors_total.
func TestWriteJSONErrorCounted(t *testing.T) {
	before := httpRespErrors.Value()
	writeJSON(httptest.NewRecorder(), http.StatusOK, math.NaN())
	if got := httpRespErrors.Value() - before; got != 1 {
		t.Fatalf("response-error counter advanced by %v, want 1", got)
	}
}
