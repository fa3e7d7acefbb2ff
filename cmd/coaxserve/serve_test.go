package main

// Tests for the serving-tier hardening layer as mounted on the HTTP
// surface: result-cache hits and mutation invalidation end to end, 429
// shedding with Retry-After, the early+non-positive-limit rejection, the
// unknown-snapshot-version report, and the response-encode error counter.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/serve"
)

// testServerHardened is testServer with the hardening layer switched on.
func testServerHardened(t *testing.T, cacheSize int, adm *serve.Admission) (*coax.ShardedIndex, *httptest.Server) {
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

// A repeated query is served from cache; a mutation invalidates it and the
// next response reflects the new data — the end-to-end stale-answer check.
func TestQueryCacheEndToEnd(t *testing.T) {
	idx, srv := testServerHardened(t, 256, nil)

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

// Regression: an unreadable snapshot header used to report the *current*
// format version — claiming knowledge the server does not have. It now
// reports 0 ("unknown").
func TestSnapshotVersionUnknown(t *testing.T) {
	if v := snapshotVersionOf(filepath.Join(t.TempDir(), "missing.coax")); v != 0 {
		t.Errorf("missing file: version %d, want 0", v)
	}
	garbled := filepath.Join(t.TempDir(), "garbled.coax")
	if err := os.WriteFile(garbled, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersionOf(garbled); v != 0 {
		t.Errorf("garbled header: version %d, want 0", v)
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
