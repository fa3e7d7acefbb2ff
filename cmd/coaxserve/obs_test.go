package main

// Serving-tier observability tests: /metrics exposition format, slow-query
// capture, verbose health, and graceful drain. The metric registry is
// process-global, so counter assertions work on deltas, never absolutes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
)

// scrape fetches /metrics and returns the body plus the value of one sample
// (0 when the series has not appeared yet).
func scrape(t *testing.T, base, sample string) (string, float64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return body, v
		}
	}
	return body, 0
}

func TestMetricsExposition(t *testing.T) {
	idx, srv := testServer(t)

	_, before := scrape(t, srv.URL, "coax_queries_total")
	const n = 7
	lim := 0
	for i := 0; i < n; i++ {
		var resp queryResponse
		postJSON(t, srv.URL+"/query", rectRequest{Limit: &lim}, &resp)
		if resp.Count != idx.Len() {
			t.Fatalf("query %d count = %d, want %d", i, resp.Count, idx.Len())
		}
	}
	body, after := scrape(t, srv.URL, "coax_queries_total")

	if after-before != n {
		t.Errorf("coax_queries_total advanced by %v, want %d", after-before, n)
	}

	// Every plane's families are present: query, mutation, lifecycle,
	// build, and HTTP.
	for _, fam := range []string{
		"coax_queries_total", "coax_query_seconds", "coax_shard_scan_seconds",
		"coax_scan_pages_total", "coax_inserts_total", "coax_compactions_total",
		"coax_rebuilds_total", "coax_builds_total", "coax_build_phase_seconds",
		"coax_http_requests_total", "coax_http_request_seconds",
		"coax_live_rows", "coax_outlier_ratio", "coax_tombstone_ratio",
	} {
		if c := strings.Count(body, "# HELP "+fam+" "); c != 1 {
			t.Errorf("family %s: %d HELP lines, want 1", fam, c)
		}
		if c := strings.Count(body, "# TYPE "+fam+" "); c != 1 {
			t.Errorf("family %s: %d TYPE lines, want 1", fam, c)
		}
	}

	// Histogram exposition is well formed: cumulative monotone buckets
	// ending at +Inf == _count.
	var (
		lastBucket float64
		infSeen    bool
		count      = -1.0
	)
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, `coax_http_request_seconds_bucket{le="`); ok {
			le, valStr, _ := strings.Cut(rest, `"} `)
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < lastBucket {
				t.Errorf("bucket le=%s value %v below previous %v (not cumulative)", le, v, lastBucket)
			}
			lastBucket = v
			if le == "+Inf" {
				infSeen = true
			}
		}
		if rest, ok := strings.CutPrefix(line, "coax_http_request_seconds_count "); ok {
			count, _ = strconv.ParseFloat(rest, 64)
		}
	}
	if !infSeen {
		t.Error("coax_http_request_seconds has no +Inf bucket")
	}
	if count < 0 || count != lastBucket {
		t.Errorf("coax_http_request_seconds _count %v != +Inf bucket %v", count, lastBucket)
	}

	// The live-rows gauge reflects this server's index (gauges re-register
	// onto the newest server).
	if _, rows := scrape(t, srv.URL, "coax_live_rows"); int(rows) != idx.Len() {
		t.Errorf("coax_live_rows = %v, index holds %d", rows, idx.Len())
	}

	// expvar mirrors the same registry under the "coax" var.
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Coax map[string]any `json:"coax"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	resp.Body.Close()
	if _, ok := vars.Coax["coax_queries_total"]; !ok {
		t.Error("/debug/vars has no coax.coax_queries_total")
	}
}

func TestSlowlogCapture(t *testing.T) {
	idx, srv := testServer(t)

	// The shared test server has no slowlog: the endpoint says so.
	resp, err := http.Get(srv.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled slowlog status %d, want 404", resp.StatusCode)
	}

	// Arm a 1ns threshold: every query is slow, capacity 3 forces the ring
	// to wrap.
	be := testBackend(idx)
	be.slowlog = newSlowLog(time.Nanosecond, 3)
	slow := serveFront(t, be, 0, nil)

	lim := 0
	for i := 0; i < 5; i++ {
		postJSON(t, slow.URL+"/query", rectRequest{Limit: &lim}, nil)
	}

	resp, err = http.Get(slow.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	var log slowlogResponse
	if err := json.NewDecoder(resp.Body).Decode(&log); err != nil {
		t.Fatalf("decoding slowlog: %v", err)
	}
	resp.Body.Close()

	if log.Total != 5 {
		t.Errorf("slowlog total = %d, want 5", log.Total)
	}
	if len(log.Entries) != 3 {
		t.Fatalf("slowlog holds %d entries, ring capacity is 3", len(log.Entries))
	}
	for i, e := range log.Entries {
		if e.Explain == nil {
			t.Fatalf("entry %d has no explain report", i)
		}
		if got := e.Explain.Primary.RowsMatched + e.Explain.Outlier.RowsMatched; got != int64(idx.Len()) {
			t.Errorf("entry %d explain matched %d rows, index holds %d", i, got, idx.Len())
		}
		if i > 0 && e.At.After(log.Entries[i-1].At) {
			t.Errorf("entries not newest-first: [%d] %v after [%d] %v", i, e.At, i-1, log.Entries[i-1].At)
		}
	}

	// The clients never asked for explain, so no report leaked into the
	// query responses — verify on one more query.
	var qr queryResponse
	postJSON(t, slow.URL+"/query", rectRequest{Limit: &lim}, &qr)
	if qr.Explain != nil {
		t.Error("slowlog-armed query returned an explain report without explain=true")
	}
}

func TestHealthzVerbose(t *testing.T) {
	idx, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Rows != idx.Len() || h.Shards != idx.NumShards() {
		t.Errorf("healthz rows/shards = %d/%d, index = %d/%d", h.Rows, h.Shards, idx.Len(), idx.NumShards())
	}
	if h.SnapshotVersion != coax.SnapshotVersionV3 {
		t.Errorf("snapshot version %d, want %d", h.SnapshotVersion, coax.SnapshotVersionV3)
	}
	if h.Epoch != idx.LifecycleStats().Epoch {
		t.Errorf("healthz epoch %d, engine reports %d", h.Epoch, idx.LifecycleStats().Epoch)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", h.UptimeSeconds)
	}
}

// TestHealthzStartup: verbose /healthz names the phase that brought the
// index up — build_s for an index built in process, open_s for a snapshot
// opened with -in — as a positive duration.
func TestHealthzStartup(t *testing.T) {
	built, _, up, err := openIndex("", "osm", "", 5000, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/built.v3"
	if err := coax.SaveShardedFileV3(path, built, false); err != nil {
		t.Fatal(err)
	}
	opened, snap, upOpen, err := openIndex(path, "", "", 0, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, tc := range []struct {
		name       string
		be         *localBackend
		up         startup
		field, not string
	}{
		{"built", newLocalBackend(built, nil, coax.DefaultThresholds(), 0), up, "build_s", "open_s"},
		{"opened", newLocalBackend(opened, snap, coax.DefaultThresholds(), 0), upOpen, "open_s", "build_s"},
	} {
		tc.be.startup = tc.up
		srv := serveFront(t, tc.be, 0, nil)
		resp, err := http.Get(srv.URL + "/healthz?verbose=1")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Startup map[string]float64 `json:"startup"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Startup == nil {
			t.Fatalf("%s: verbose /healthz has no startup field", tc.name)
		}
		if v := h.Startup[tc.field]; v <= 0 {
			t.Errorf("%s: startup.%s = %v, want > 0", tc.name, tc.field, v)
		}
		if _, ok := h.Startup[tc.not]; ok {
			t.Errorf("%s: startup also reports %s: %v", tc.name, tc.not, h.Startup)
		}
	}
}

func TestDebugMux(t *testing.T) {
	idx, _ := testServer(t)
	dbg := httptest.NewServer(newDebugMux(testBackend(idx)))
	t.Cleanup(dbg.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics", "/debug/vars"} {
		resp, err := http.Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestGracefulDrain triggers shutdown while a request is in flight and
// checks that the request still completes and the server exits cleanly.
func TestGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inHandler := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
		fmt.Fprint(w, "drained")
	})
	srv := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	served := make(chan error, 1)
	go func() { served <- serveUntilShutdown(srv, ln, ctx, 5*time.Second) }()

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- resp.Status + " " + string(body)
	}()

	// Shutdown begins while the request is parked in the handler, then the
	// handler is released — a clean drain serves it to completion.
	<-inHandler
	cancel()
	time.Sleep(50 * time.Millisecond) // let Shutdown begin before releasing
	close(release)

	select {
	case body := <-got:
		if body != "200 OK drained" {
			t.Errorf("in-flight request got %q, want it served to completion", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("serveUntilShutdown returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntilShutdown never returned")
	}
}

// TestDrainTimeout: a handler that outlives the drain window surfaces as an
// error instead of hanging shutdown forever.
func TestDrainTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inHandler := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
	})
	srv := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())

	served := make(chan error, 1)
	go func() { served <- serveUntilShutdown(srv, ln, ctx, 20*time.Millisecond) }()
	go http.Get("http://" + ln.Addr().String() + "/stuck")

	<-inHandler
	cancel()
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "drain timeout") {
			t.Errorf("stuck handler: serveUntilShutdown returned %v, want drain-timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntilShutdown hung past the drain timeout")
	}
}
