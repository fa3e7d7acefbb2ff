package main

import (
	"encoding/json"
	"net/http"
	"testing"
)

func TestDeleteAndUpdateEndpoints(t *testing.T) {
	idx, srv := testServer(t)
	before := idx.Len()

	row := []float64{10, 20, 30, 40}
	var ok map[string]int
	postJSON(t, srv.URL+"/insert", insertRequest{Row: row}, &ok)
	if ok["rows"] != before+1 {
		t.Fatalf("insert: rows=%d", ok["rows"])
	}

	// Update the row, then delete the replacement.
	repl := []float64{11, 21, 31, 41}
	postJSON(t, srv.URL+"/update", updateRequest{Old: row, New: repl}, &ok)
	if ok["rows"] != before+1 || idx.Len() != before+1 {
		t.Fatalf("update changed row count: %d", ok["rows"])
	}
	if resp := postJSON(t, srv.URL+"/delete", insertRequest{Row: row}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleting the pre-update row: status %d, want 404", resp.StatusCode)
	}
	postJSON(t, srv.URL+"/delete", insertRequest{Row: repl}, &ok)
	if ok["rows"] != before || idx.Len() != before {
		t.Fatalf("delete: rows=%d, want %d", ok["rows"], before)
	}

	// Malformed mutations are 400s.
	if resp := postJSON(t, srv.URL+"/delete", insertRequest{Row: []float64{1}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short delete row: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/update", updateRequest{Old: repl, New: []float64{1}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short update row: status %d", resp.StatusCode)
	}
}

func TestStatsReportsLifecycle(t *testing.T) {
	idx, srv := testServer(t)

	// A few mutations so the counters are visibly non-zero.
	row := []float64{1, 2, 3, 4}
	if err := idx.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(row); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Lifecycle.Inserts != 1 || st.Lifecycle.Deletes != 1 {
		t.Fatalf("lifecycle counters: %+v", st.Lifecycle)
	}
	if st.Lifecycle.LiveRows != idx.Len() {
		t.Fatalf("live rows %d, engine %d", st.Lifecycle.LiveRows, idx.Len())
	}
	if len(st.ShardEpochs) != idx.NumShards() {
		t.Fatalf("%d shard epochs for %d shards", len(st.ShardEpochs), idx.NumShards())
	}
}

func TestCompactEndpoint(t *testing.T) {
	idx, srv := testServer(t)

	// Nothing stale yet: a plain compact rebuilds nothing.
	var resp compactResponse
	postJSON(t, srv.URL+"/compact", struct{}{}, &resp)
	if len(resp.Rebuilt) != 0 || resp.Forced {
		t.Fatalf("idle compact: %+v", resp)
	}

	// Forced compaction rebuilds every shard and bumps every epoch.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/compact?force=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	resp = compactResponse{}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Forced || len(resp.Rebuilt) != idx.NumShards() {
		t.Fatalf("forced compact: %+v", resp)
	}
	for i, e := range resp.Epochs {
		if e != 1 {
			t.Fatalf("shard %d epoch %d after forced rebuild, want 1", i, e)
		}
	}
}
