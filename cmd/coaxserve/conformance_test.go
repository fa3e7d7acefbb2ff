package main

// One HTTP conformance suite over both backends. serve and router mount the
// same handlers, so the same request must earn the same status and the same
// JSON shape from an in-process index and from a 2-node rf-2 cluster serving
// the same table; the rows where the two differ by design say so once. Two
// golden files pin the /query response bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/serve"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/workload"
)

// confRow is one request of the conformance table.
type confRow struct {
	name   string
	method string // "" means POST
	path   string
	body   string
	local  int // expected status from the local backend
	router int // expected status from the router; 0 means the same
	// ownShape marks a reply whose body is backend-specific by design
	// (/stats, verbose /healthz, /metrics): only the status is compared.
	ownShape bool
}

const (
	window  = `"min":[null,0,null,null],"max":[null,3000,null,null]`
	testRow = `[123456.5,1,40,-75]`
)

func conformanceRows(tab *coax.Table) []confRow {
	rows := []confRow{
		{name: "rows, default limit", path: "/query", body: `{}`, local: 200},
		{name: "rows, limit", path: "/query", body: `{` + window + `,"limit":5}`, local: 200},
		{name: "count only", path: "/query", body: `{` + window + `,"limit":0}`, local: 200},
		{name: "every row", path: "/query", body: `{` + window + `,"limit":-1}`, local: 200},
		{name: "early", path: "/query", body: `{"limit":7,"early":true}`, local: 200},
		{name: "agg count", path: "/query", body: `{"agg":{"op":"count"}}`, local: 200},
		{name: "agg count, cached", path: "/query", body: `{"agg":{"op":"count"}}`, local: 200},
		{name: "agg sum by dim", path: "/query", body: `{` + window + `,"agg":{"op":"sum","dim":3}}`, local: 200},
		{name: "agg min by dim", path: "/query", body: `{` + window + `,"agg":{"op":"min","dim":2}}`, local: 200},
		{name: "agg max over nothing", path: "/query", body: `{"min":[null,1e12,null,null],"agg":{"op":"max","dim":0}}`, local: 200},
		{name: "agg group_by_dim", path: "/query", body: `{"min":[null,0,null,null],"max":[null,60,null,null],"agg":{"op":"avg","dim":3,"group_by_dim":2}}`, local: 200},
		{name: "batch", path: "/batch", body: `{"queries":[{"limit":0},{"min":[null,1e12,null,null]},{"limit":2}]}`, local: 200},
		{name: "batch, early element", path: "/batch", body: `{"queries":[{"limit":0},{"limit":3,"early":true}]}`, local: 200},

		{name: "NaN bound", path: "/query", body: `{"min":[NaN,null,null,null]}`, local: 400},
		{name: "inverted bounds", path: "/query", body: `{"min":[null,100,null,null],"max":[null,50,null,null]}`, local: 400},
		{name: "too few bounds", path: "/query", body: `{"min":[1]}`, local: 400},
		{name: "too many bounds", path: "/query", body: `{"max":[1,2,3,4,5]}`, local: 400},
		{name: "unknown field", path: "/query", body: `{"limit":1,"offset":2}`, local: 400},
		{name: "second value after the body", path: "/query", body: `{"limit":0} {"limit":-1}`, local: 400},
		{name: "garbage after the body", path: "/batch", body: `{"queries":[{"limit":0}]}xyz`, local: 400},
		{name: "whitespace after the body", path: "/query", body: `{"limit":0}` + " \n\t", local: 200},
		{name: "early, limit 0", path: "/query", body: `{"limit":0,"early":true}`, local: 400},
		{name: "early, limit -1", path: "/query", body: `{"limit":-1,"early":true}`, local: 400},
		{name: "agg with early", path: "/query", body: `{"limit":1,"early":true,"agg":{"op":"count"}}`, local: 400},
		{name: "agg unknown op", path: "/query", body: `{"agg":{"op":"frobnicate"}}`, local: 400},
		{name: "agg sum without column", path: "/query", body: `{"agg":{"op":"sum"}}`, local: 400},
		{name: "agg count of a column", path: "/query", body: `{"agg":{"op":"count","dim":1}}`, local: 400},
		{name: "agg dim out of range", path: "/query", body: `{"agg":{"op":"sum","dim":4}}`, local: 400},
		{name: "agg group_by_dim out of range", path: "/query", body: `{"agg":{"op":"count","group_by_dim":-1}}`, local: 400},
		{name: "agg inside batch", path: "/batch", body: `{"queries":[{"agg":{"op":"count"}}]}`, local: 400},
		{name: "inverted bounds inside batch", path: "/batch", body: `{"queries":[{},{"min":[null,100,null,null],"max":[null,50,null,null]}]}`, local: 400},
		{name: "early limit 0 inside batch", path: "/batch", body: `{"queries":[{"limit":7},{"limit":0,"early":true}]}`, local: 400},
		{name: "over-long batch", path: "/batch", body: `{"queries":[` + strings.Repeat(`{},`, maxBatchQueries) + `{}]}`, local: 400},

		{name: "insert", path: "/insert", body: `{"row":` + testRow + `}`, local: 200},
		{name: "inserted row is visible", path: "/query", body: `{"min":[123456.5,null,null,null],"max":[123456.5,null,null,null]}`, local: 200},
		{name: "update", path: "/update", body: `{"old":` + testRow + `,"new":[123456.5,2,40,-75]}`, local: 200},
		{name: "delete the pre-update row", path: "/delete", body: `{"row":` + testRow + `}`, local: 404},
		{name: "delete", path: "/delete", body: `{"row":[123456.5,2,40,-75]}`, local: 200},
		{name: "delete again", path: "/delete", body: `{"row":[123456.5,2,40,-75]}`, local: 404},
		{name: "update an absent row", path: "/update", body: `{"old":` + testRow + `,"new":` + testRow + `}`, local: 404},
		{name: "insert a short row", path: "/insert", body: `{"row":[1]}`, local: 400},
		{name: "insert a huge value", path: "/insert", body: `{"row":[900001,1,40,1.7e308]}`, local: 200},
		{name: "insert another", path: "/insert", body: `{"row":[900002,2,41,1.7e308]}`, local: 200},
		{name: "agg sum overflows", path: "/query", body: `{"agg":{"op":"sum","dim":3}}`, local: 500},
		{name: "agg sum overflows again", path: "/query", body: `{"agg":{"op":"sum","dim":3}}`, local: 500},
		{name: "delete the huge value", path: "/delete", body: `{"row":[900001,1,40,1.7e308]}`, local: 200},
		{name: "delete the other", path: "/delete", body: `{"row":[900002,2,41,1.7e308]}`, local: 200},
		{name: "insert a non-numeric row", path: "/insert", body: `{"row":[1,"NaN",3,4]}`, local: 400},
		{name: "update to a short row", path: "/update", body: `{"old":` + testRow + `,"new":[1]}`, local: 400},

		{name: "healthz", method: "GET", path: "/healthz", local: 200},
		{name: "healthz verbose", method: "GET", path: "/healthz?verbose=1", local: 200, ownShape: true},
		{name: "stats", method: "GET", path: "/stats", local: 200, ownShape: true},
		{name: "metrics", method: "GET", path: "/metrics", local: 200, ownShape: true},
		{name: "expvar", method: "GET", path: "/debug/vars", local: 200, ownShape: true},

		// The differences, stated once. The router knows no column names; no
		// trace crosses the wire, so it cannot explain — and must say so
		// rather than answer the plain query above from its cache; and only a
		// local engine has shards to compact and a slow-query log.
		{name: "agg by column name", path: "/query", body: `{"agg":{"op":"sum","col":"lon"}}`, local: 200, router: 400},
		{name: "agg group_by name", path: "/query", body: `{` + window + `,"agg":{"op":"count","group_by":"lat"}}`, local: 200, router: 400},
		{name: "agg unknown column name", path: "/query", body: `{"agg":{"op":"sum","col":"nope"}}`, local: 400},
		{name: "explain rows", path: "/query?explain=true", body: `{` + window + `,"limit":5}`, local: 200, router: 400},
		{name: "explain agg", path: "/query?explain=true", body: `{"agg":{"op":"count"}}`, local: 200, router: 400},
		{name: "explain batch", path: "/batch?explain=true", body: `{"queries":[{"limit":0}]}`, local: 200, router: 400},
		{name: "compact", path: "/compact", local: 200, router: 404},
		{name: "slowlog", method: "GET", path: "/debug/slowlog", local: 200, router: 404},
	}
	// Real workload rectangles: the two backends must count the same rows.
	for i, r := range workload.NewGenerator(tab, 5).KNNRects(8, 50) {
		body, _ := json.Marshal(rectToRequest(r))
		rows = append(rows, confRow{name: fmt.Sprintf("knn rect %d", i), path: "/query", body: string(body), local: 200})
	}
	return rows
}

type confReply struct {
	status int
	header http.Header
	length int64 // the Content-Length the server declared, -1 when it sent none
	body   []byte
}

func do(t *testing.T, base string, row confRow) confReply {
	t.Helper()
	method := row.method
	if method == "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, base+row.path, strings.NewReader(row.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return confReply{resp.StatusCode, resp.Header, resp.ContentLength, body}
}

// shape reduces a decoded JSON value to its structure: object keys and
// value kinds, with arrays summarized by their first element.
func shape(v any) string {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			keys[i] = k + ":" + shape(x[k])
		}
		return "{" + strings.Join(keys, ",") + "}"
	case []any:
		if len(x) == 0 {
			return "[]"
		}
		return "[" + shape(x[0]) + "]"
	case float64:
		return "n"
	case string:
		return "s"
	case bool:
		return "b"
	}
	return "null"
}

func TestHTTPConformance(t *testing.T) {
	// The local engine has as many range shards as the cluster has global
	// shards — the same partition — so the two answer every aggregate with
	// the same bits.
	const gshards, rf = 8, 2
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(6000))
	so := coax.DefaultShardOptions()
	so.NumShards = gshards
	idx, err := shard.Build(tab, coax.DefaultOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	local := testBackend(idx)
	local.slowlog = newSlowLog(time.Hour, 4)

	tc := startTestCluster(t, tab, gshards, 2, rf)
	rt, err := cluster.NewRouter(tc.addrs, gshards, rf)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	backends := []struct {
		name string
		be   backend
	}{{"local", local}, {"router", clusterBackend{rt}}}

	rows := conformanceRows(tab)
	replies := make([][]confReply, len(backends))
	for bi, b := range backends {
		srv := serveFront(t, b.be, 256, nil)
		for _, row := range rows {
			want := row.local
			if bi == 1 && row.router != 0 {
				want = row.router
			}
			got := do(t, srv.URL, row)
			if got.status != want {
				t.Errorf("%s: %s: status %d, want %d (%s)", b.name, row.name, got.status, want, got.body)
			}
			// An answer is finished before its first byte is sent, so it
			// always declares its length.
			answer := strings.HasPrefix(row.path, "/query") || strings.HasPrefix(row.path, "/batch")
			if answer && got.status == http.StatusOK && got.length != int64(len(got.body)) {
				t.Errorf("%s: %s: Content-Length %d on a %d-byte body", b.name, row.name, got.length, len(got.body))
			}
			replies[bi] = append(replies[bi], got)
		}
	}

	// Same status means same shape, same count, same aggregate.
	type answer struct {
		Count *int `json:"count"`
		Agg   *struct {
			Value  *float64 `json:"value"`
			Groups []struct {
				Key   float64 `json:"key"`
				Count int64   `json:"count"`
			} `json:"groups"`
		} `json:"agg"`
	}
	for i, row := range rows {
		l, r := replies[0][i], replies[1][i]
		if row.ownShape || l.status != r.status {
			continue
		}
		var lv, rv any
		if err := json.Unmarshal(l.body, &lv); err != nil {
			t.Errorf("%s: local body is not JSON: %v", row.name, err)
			continue
		}
		if err := json.Unmarshal(r.body, &rv); err != nil {
			t.Errorf("%s: router body is not JSON: %v", row.name, err)
			continue
		}
		if ls, rs := shape(lv), shape(rv); ls != rs {
			t.Errorf("%s: local shape %s, router shape %s", row.name, ls, rs)
		}
		var la, ra answer
		json.Unmarshal(l.body, &la)
		json.Unmarshal(r.body, &ra)
		if la.Count != nil && (ra.Count == nil || *la.Count != *ra.Count) {
			t.Errorf("%s: local count %d, router %v", row.name, *la.Count, ra.Count)
		}
		if la.Agg == nil || ra.Agg == nil {
			continue
		}
		if lv, rv := la.Agg.Value, ra.Agg.Value; (lv == nil) != (rv == nil) || lv != nil && *lv != *rv {
			t.Errorf("%s: local value %v, router %v", row.name, lv, rv)
		}
		if len(la.Agg.Groups) != len(ra.Agg.Groups) {
			t.Errorf("%s: local %d groups, router %d", row.name, len(la.Agg.Groups), len(ra.Agg.Groups))
			continue
		}
		for g := range la.Agg.Groups {
			if la.Agg.Groups[g].Key != ra.Agg.Groups[g].Key || la.Agg.Groups[g].Count != ra.Agg.Groups[g].Count {
				t.Errorf("%s: group %d: local %+v, router %+v", row.name, g, la.Agg.Groups[g], ra.Agg.Groups[g])
			}
		}
	}

	// Replies that carry an execution report say so; plain ones do not.
	for i, row := range rows {
		if strings.Contains(row.path, "explain=true") != bytes.Contains(replies[0][i].body, []byte(`"explain":{`)) {
			t.Errorf("local: %s: explain report presence is wrong: %s", row.name, replies[0][i].body)
		}
	}

	// With the one execution slot held and no queue, both shed with 429 and
	// a Retry-After hint, and serve again once it is released.
	for _, b := range backends {
		adm := serve.NewAdmission(1, 0, 50*time.Millisecond)
		srv := serveFront(t, b.be, 0, adm)
		if err := adm.Acquire(nil); err != nil {
			t.Fatal(err)
		}
		for _, row := range []confRow{
			{path: "/query", body: `{}`},
			{path: "/batch", body: `{"queries":[{}]}`},
		} {
			got := do(t, srv.URL, row)
			if got.status != http.StatusTooManyRequests || got.header.Get("Retry-After") == "" {
				t.Errorf("%s: %s under overload: status %d, Retry-After %q", b.name, row.path, got.status, got.header.Get("Retry-After"))
			}
		}
		adm.Release()
		if got := do(t, srv.URL, confRow{path: "/query", body: `{}`}); got.status != http.StatusOK {
			t.Errorf("%s: after release: status %d", b.name, got.status)
		}
		if got := do(t, srv.URL, confRow{method: "GET", path: "/stats"}); !bytes.Contains(got.body, []byte(`"admission":{"max_inflight":1`)) {
			t.Errorf("%s: /stats has no admission section: %s", b.name, got.body)
		}
	}

	// Every replica shedding node-side is a 429 too, for reads and writes,
	// carrying the LARGEST hint: the earliest the whole request can succeed.
	srv := serveFront(t, clusterBackend{rt}, 0, nil)
	tc.nodes[0].SetDraining(1500 * time.Millisecond)
	tc.nodes[1].SetDraining(3500 * time.Millisecond)
	for _, row := range []confRow{
		{path: "/query", body: `{"limit":0}`},
		{path: "/query", body: `{"agg":{"op":"count"}}`},
		{path: "/batch", body: `{"queries":[{}]}`},
		{path: "/insert", body: `{"row":` + testRow + `}`},
	} {
		got := do(t, srv.URL, row)
		if got.status != http.StatusTooManyRequests || got.header.Get("Retry-After") != "4" {
			t.Errorf("all replicas draining: %s: status %d, Retry-After %q; want 429 and \"4\" (ceil of the 3.5s max)",
				row.path, got.status, got.header.Get("Retry-After"))
		}
	}
	tc.nodes[0].SetDraining(0)
	tc.nodes[1].SetDraining(0)
	if got := do(t, srv.URL, confRow{path: "/query", body: `{"limit":0}`}); got.status != http.StatusOK {
		t.Errorf("after drain lifted: status %d", got.status)
	}
}

// TestQueryGolden pins the /query response bytes for rows and aggregates.
// The files were written by the handlers this front end replaced (commit
// 27a5cf5) from the same requests over the same one-shard index — one shard
// because rows arrive in shard-completion order otherwise — so any drift in
// field order, number formatting or omitted fields fails here.
func TestQueryGolden(t *testing.T) {
	so := coax.DefaultShardOptions()
	so.NumShards = 1
	idx, err := shard.Build(coax.GenerateOSM(coax.DefaultOSMConfig(2000)), coax.DefaultOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveFront(t, testBackend(idx), 0, nil)
	for file, bodies := range map[string][]string{
		"testdata/query_rows.golden.json": {
			`{"min":[null,1000,null,null],"max":[null,60000,null,null],"limit":25}`,
			`{"limit":0}`,
			`{"min":[null,null,40,null],"max":[null,null,41,null],"limit":3,"early":true}`,
		},
		"testdata/query_agg.golden.json": {
			`{"agg":{"op":"count"}}`,
			`{"min":[null,0,null,null],"max":[null,50000,null,null],"agg":{"op":"sum","col":"lon"}}`,
			`{"min":[null,0,null,null],"max":[null,30,null,null],"agg":{"op":"avg","dim":3,"group_by_dim":2}}`,
			`{"min":[null,1e12,null,null],"agg":{"op":"min","dim":0}}`,
		},
	} {
		var got []byte
		for _, body := range bodies {
			reply := do(t, srv.URL, confRow{path: "/query", body: body})
			if reply.status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, reply.status, reply.body)
			}
			got = append(got, reply.body...)
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response bytes changed:\n got: %s\nwant: %s", file, got, want)
		}
	}
}
