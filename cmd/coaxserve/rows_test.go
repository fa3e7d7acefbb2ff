package main

// The row reply is a fold: the engine hands the handler an exact count and
// the rows the reply keeps, so what a miss allocates follows the rows it
// returns, not the rows that match — and the rows it returns do not depend
// on worker timing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/serve"
	"github.com/coax-index/coax/internal/shard"
)

// wideRows is the row count of the wide fixture; ids run 0..wideRows-1, and
// the id column is the range-partition column, cut every wideRows/4 ids.
const wideRows = 40000

var wide struct {
	once sync.Once
	idx  *coax.Index
	err  error
}

// wideIndex is a 4-shard, 4-worker OSM index large enough for one query to
// match tens of thousands of rows across several probes — the shape of a
// mapped-cold miss. It is built once per test binary.
func wideIndex(t testing.TB) *coax.Index {
	t.Helper()
	wide.once.Do(func() {
		so := coax.DefaultShardOptions()
		so.NumShards, so.Workers = 4, 4
		wide.idx, wide.err = shard.Build(coax.GenerateOSM(coax.DefaultOSMConfig(wideRows)), coax.DefaultOptions(), so)
	})
	if wide.err != nil {
		t.Fatalf("BuildSharded: %v", wide.err)
	}
	return wide.idx
}

// idWindow asks for the rows with lo <= id <= hi.
func idWindow(lo, hi float64, limit int) *rectRequest {
	return &rectRequest{Min: []*float64{&lo, nil, nil, nil}, Max: []*float64{&hi, nil, nil, nil}, Limit: &limit}
}

// missCost runs q through f (no cache: every query is a miss) and returns
// the mallocs and bytes one query allocates, and its reply.
func missCost(t *testing.T, f *front, q *rectRequest) (mallocs, allocated uint64, reply queryResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	run := func() []byte {
		body, err := f.query(req, q)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if err := json.Unmarshal(run(), &reply); err != nil {
		t.Fatalf("reply is not JSON: %v", err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs, reply
}

// A miss that keeps 100 of 20 000 matches across two probes allocates for
// the 100: under 64 kB, and no more mallocs than a miss matching a tenth as
// many rows over the same two shards.
func TestQueryMissAllocsIndependentOfMatches(t *testing.T) {
	f := &front{be: testBackend(wideIndex(t))}
	narrowMallocs, _, narrow := missCost(t, f, idWindow(wideRows/4-1000, wideRows/4+999, 100))
	wideMallocs, wideBytes, reply := missCost(t, f, idWindow(0, wideRows/2-1, 100))
	if narrow.Count != 2000 || reply.Count != wideRows/2 || len(reply.Rows) != 100 {
		t.Fatalf("fixture: narrow count %d, wide count %d with %d rows", narrow.Count, reply.Count, len(reply.Rows))
	}
	t.Logf("%d matches: %d mallocs, %d bytes; %d matches: %d mallocs", reply.Count, wideMallocs, wideBytes, narrow.Count, narrowMallocs)
	if wideBytes >= 64<<10 {
		t.Errorf("a miss keeping 100 of %d matches allocated %d bytes, ceiling %d", reply.Count, wideBytes, 64<<10)
	}
	if wideMallocs > narrowMallocs+narrowMallocs/10 {
		t.Errorf("%d matches made %d mallocs, %d matches %d: allocation grows with matches", reply.Count, wideMallocs, narrow.Count, narrowMallocs)
	}
}

// A limit far above the match count is a bound, not a size: nothing is
// allocated from it.
func TestHugeLimitAllocatesByMatches(t *testing.T) {
	f := &front{be: testBackend(wideIndex(t))}
	_, allocated, reply := missCost(t, f, idWindow(100, 149, 1<<30))
	if reply.Count != 50 || len(reply.Rows) != 50 {
		t.Fatalf("fixture: count %d, %d rows", reply.Count, len(reply.Rows))
	}
	if allocated >= 32<<10 {
		t.Errorf(`"limit": 1<<30 over 50 rows allocated %d bytes, ceiling %d`, allocated, 32<<10)
	}
}

// A limit of math.MaxInt bounds nothing: /query, with and without
// "early", and /batch answer every matching row, from one process and
// from the router, whose nodes take the limit as their keep.
func TestMaxIntLimitAnswered(t *testing.T) {
	const gshards, rf = 8, 2
	tc := startTestCluster(t, coax.GenerateOSM(coax.DefaultOSMConfig(8000)), gshards, 2, rf)
	rt, err := cluster.NewRouter(tc.addrs, gshards, rf)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	q := fmt.Sprintf(`{"min":[null,null,40,null],"limit":%d`, math.MaxInt)
	for _, b := range []struct {
		name string
		be   backend
	}{{"serve", testBackend(wideIndex(t))}, {"router", clusterBackend{rt}}} {
		t.Run(b.name, func(t *testing.T) {
			srv := serveFront(t, b.be, 0, nil)
			var want queryResponse
			for _, row := range []confRow{
				{path: "/query", body: `{"min":[null,null,40,null],"limit":-1}`},
				{path: "/query", body: q + "}"},
				{path: "/query", body: q + `,"early":true}`},
				{path: "/batch", body: `{"queries":[` + q + "}]}"},
			} {
				got := do(t, srv.URL, row)
				if got.status != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", row.path, row.body, got.status, got.body)
				}
				var reply queryResponse
				if row.path == "/batch" {
					var batch batchResponse
					if err := json.Unmarshal(got.body, &batch); err != nil || len(batch.Results) != 1 {
						t.Fatalf("%s: %v: %.300s", row.body, err, got.body)
					}
					reply = batch.Results[0]
				} else if err := json.Unmarshal(got.body, &reply); err != nil {
					t.Fatalf("%s: %v", row.body, err)
				}
				if want.Rows == nil {
					want = reply
				}
				if reply.Count == 0 || reply.Count != want.Count || len(reply.Rows) != reply.Count {
					t.Fatalf("%s %s: %d rows of %d, limit -1 answers %d", row.path, row.body, len(reply.Rows), reply.Count, want.Count)
				}
			}
		})
	}
}

// Rows are kept in shard order, then scan order: with workers racing over
// the shards — four in process, or two nodes serving eight global shards
// behind the router — and no cache, every reply to one request is the same
// bytes.
func TestQueryReplyDeterministic(t *testing.T) {
	const gshards, rf = 8, 2
	tc := startTestCluster(t, coax.GenerateOSM(coax.DefaultOSMConfig(8000)), gshards, 2, rf)
	rt, err := cluster.NewRouter(tc.addrs, gshards, rf)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, b := range []struct {
		name string
		be   backend
	}{{"serve", testBackend(wideIndex(t))}, {"router", clusterBackend{rt}}} {
		t.Run(b.name, func(t *testing.T) {
			srv := serveFront(t, b.be, 0, nil)
			row := confRow{path: "/query", body: `{"min":[null,null,40,null],"limit":100}`}
			first := do(t, srv.URL, row)
			if first.status != http.StatusOK {
				t.Fatalf("status %d: %s", first.status, first.body)
			}
			for i := 0; i < 200; i++ {
				if got := do(t, srv.URL, row); !bytes.Equal(got.body, first.body) {
					t.Fatalf("request %d: reply differs from the first:\n got: %.300s\nwant: %.300s", i, got.body, first.body)
				}
			}
		})
	}
}

// BenchmarkQueryMissWide is mapped-cold's shape in process: each query is a
// new cache key matching 20 000 rows over two shards and keeping 100 —
// scan, fold, encode 100 rows, Put.
func BenchmarkQueryMissWide(b *testing.B) {
	be := testBackend(wideIndex(b))
	f := &front{be: be, qcache: serve.NewQueryCache(be, 64)}
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		lo := -1 - float64(i) // ids start at 0: every query matches the same rows
		body, err := f.query(req, idWindow(lo, wideRows/2-1, 100))
		f.writeResult(rec, req, body, err)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
}
