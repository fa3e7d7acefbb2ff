package main

// The load generator: one process, closed loop, `clients` goroutines each on
// its own keep-alive connection. A client sends its next request only after
// the previous reply arrived — callers of /query wait for their answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// httpClient is one closed-loop client: a private transport, so exactly one
// connection, and a reusable body buffer.
type httpClient struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newHTTPClient(addr string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

// post sends one operation and returns the status and the body, which stays
// valid until the next call.
func (hc *httpClient) post(path string, body []byte) (int, []byte, error) {
	resp, err := hc.c.Post(hc.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hc.buf.Reset()
	_, err = io.Copy(&hc.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, hc.buf.Bytes(), nil
}

func (hc *httpClient) getJSON(path string, v any) error {
	resp, err := hc.c.Get(hc.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (hc *httpClient) getText(path string) (string, error) {
	resp, err := hc.c.Get(hc.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// leadingCount reads N from a body starting {"count":N or {"rows":N without
// decoding what follows — a timed operation checks status and count only, so
// the harness does not spend the server's CPUs parsing 50 kB of rows.
func leadingCount(body []byte) (int64, bool) {
	i := bytes.IndexByte(body, ':')
	if i < 0 || i > 10 {
		return 0, false
	}
	var n int64
	j := i + 1
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		n = n*10 + int64(body[j]-'0')
	}
	return n, j > i+1
}

// wireResponse is the part of coaxserve's /query reply the checks need.
type wireResponse struct {
	Count int64       `json:"count"`
	Rows  [][]float64 `json:"rows"`
	Agg   *struct {
		Value *float64 `json:"value"`
	} `json:"agg"`
}

func decodeAnswer(body []byte) (answer, error) {
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return answer{}, err
	}
	a := answer{count: wr.Count, rows: wr.Rows}
	if wr.Agg != nil {
		a.aggValue = wr.Agg.Value
	}
	return a, nil
}

// sample is one completed operation.
type sample struct {
	kind   opKind
	failed bool
	idx    int32 // position in the read list; -1 for writes
	lat    time.Duration
	count  int64
	bytes  int32 // reply size
}

// runner drives one workload's deployment.
type runner struct {
	spec  *spec
	dep   *deployment
	reads []op
	base  *oracle

	hc     [clients]*httpClient
	cursor atomic.Int64 // cyclic position in reads, shared by the clients
	rng    [clients]*rand.Rand
	zipf   [clients]*rand.Zipf
	mix    *workload.MixGenerator // client 0's write stream (hot-mixed)

	mu       sync.Mutex
	failures []string         // first few failure messages
	failed   int              // failed operations, all phases
	seen     map[int32]int64  // first count observed per read (immutable data only)
	sampled  map[int32]answer // decoded warm-up answers kept for the oracle
	segs     []segment
}

func newRunner(s *spec, d *deployment, tab *dataset.Table, reads []op, seed int64) *runner {
	r := &runner{spec: s, dep: d, reads: reads, seen: map[int32]int64{}, sampled: map[int32]answer{}}
	for c := range r.hc {
		r.hc[c] = newHTTPClient(d.addr)
		r.rng[c] = rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		if s.Zipf > 0 {
			r.zipf[c] = rand.NewZipf(r.rng[c], s.Zipf, 1, uint64(len(reads)-1))
		}
	}
	if s.WriteFrac > 0 {
		r.mix = workload.NewMixGenerator(tab, seed, mixConfig())
	}
	return r
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// oracleEvery: every oracleEvery-th distinct warm-up operation is decoded in
// full and compared with a full scan; timedOracleEvery does the same, count
// only, for distinct operations first seen in the timed phase.
const (
	oracleEvery      = 8
	timedOracleEvery = 32
)

// exec sends one operation from client c, classifies the reply, and returns
// the sample. decode keeps the full answer of oracle-sampled reads.
func (r *runner) exec(c int, o *op, idx int32, decode bool) sample {
	t0 := time.Now()
	status, body, err := r.hc[c].post(o.path, o.body)
	s := sample{kind: o.kind, idx: idx, lat: time.Since(t0)}
	switch {
	case err != nil:
		s.failed = true
		r.fail("%s %s: %v", o.kind, o.path, err)
	case status != http.StatusOK:
		s.failed = true
		r.fail("%s %s: status %d: %.120s", o.kind, o.path, status, body)
	default:
		n, ok := leadingCount(body)
		if !ok {
			s.failed = true
			r.fail("%s %s: unparsable reply %.120s", o.kind, o.path, body)
			break
		}
		s.count, s.bytes = n, int32(len(body))
		if decode && idx >= 0 && idx%oracleEvery == 0 {
			a, err := decodeAnswer(body)
			if err != nil {
				s.failed = true
				r.fail("%s: decoding reply: %v", o.kind, err)
				break
			}
			r.mu.Lock()
			r.sampled[idx] = a
			r.mu.Unlock()
		}
	}
	return s
}

// segment is one stretch of closed-loop load with the servers' CPU and
// memory read at its edges.
type segment struct {
	wall    time.Duration
	samples []sample
	cpu     time.Duration // Δ(utime+stime) over all server processes
	rss     int64         // Σ VmRSS at the end
	ref     float64       // reference-server rate around the segment: the machine's speed
}

// warmup issues the first n read operations once each, in list order across
// the clients, decoding the oracle sample.
func (r *runner) warmup(n int) {
	n = min(n, len(r.reads))
	var wg sync.WaitGroup
	results := make([][]sample, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := r.cursor.Add(1) - 1
				if i >= int64(n) {
					r.cursor.Add(-1)
					return
				}
				results[c] = append(results[c], r.exec(c, &r.reads[i], int32(i), true))
			}
		}()
	}
	wg.Wait()
	for _, rs := range results {
		r.noteCounts(rs)
	}
}

// run applies closed-loop load for dur and returns the segment.
func (r *runner) run(dur time.Duration) (segment, error) {
	cpu0, _, err := usage(r.dep.procs)
	if err != nil {
		return segment{}, err
	}
	var wg sync.WaitGroup
	results := make([][]sample, clients)
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]sample, 0, 1<<14)
			for time.Now().Before(deadline) {
				o, idx := r.nextOp(c)
				out = append(out, r.exec(c, &o, idx, false))
			}
			results[c] = out
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu1, rss, err := usage(r.dep.procs)
	if err != nil {
		return segment{}, err
	}
	seg := segment{wall: wall, cpu: cpu1 - cpu0, rss: rss}
	for _, rs := range results {
		seg.samples = append(seg.samples, rs...)
		if r.mix == nil {
			r.noteCounts(rs)
		}
	}
	return seg, nil
}

// nextOp picks client c's next operation: a write from the mix generator
// (client 0, WriteFrac of its operations), else a read drawn
// Zipf-distributed or, by default, the next one in cyclic order. idx is the
// read's position in the list, -1 for a write.
func (r *runner) nextOp(c int) (o op, idx int32) {
	if c == 0 && r.mix != nil && r.rng[0].Float64() < r.spec.WriteFrac {
		return writeOp(r.mix.Next()), -1
	}
	var i int64
	if r.zipf[c] != nil {
		i = int64(r.zipf[c].Uint64())
	} else {
		i = (r.cursor.Add(1) - 1) % int64(len(r.reads))
	}
	return r.reads[i], int32(i)
}

// noteCounts records each read's first observed count and fails any later
// reply that disagrees: the data is immutable, so must the answers be.
func (r *runner) noteCounts(rs []sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range rs {
		if s.failed || s.idx < 0 {
			continue
		}
		if first, ok := r.seen[s.idx]; !ok {
			r.seen[s.idx] = s.count
		} else if first != s.count {
			r.failed++
			if len(r.failures) < 8 {
				r.failures = append(r.failures, fmt.Sprintf("read %d answered count %d, earlier %d", s.idx, s.count, first))
			}
		}
	}
}

// verify compares the sampled answers with the full-scan oracle, in
// parallel. It runs after the timed phase so the scans do not compete with
// the servers.
func (r *runner) verify() (checked int) {
	type job struct {
		idx  int32
		full bool
	}
	var jobs []job
	for idx := range r.seen {
		_, full := r.sampled[idx]
		if full || (r.mix == nil && idx%timedOracleEvery == 0) {
			jobs = append(jobs, job{idx, full})
		}
	}
	work := make(chan job)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				o := r.reads[j.idx]
				var err error
				if j.full {
					err = check(o, r.sampled[j.idx], r.base.scan)
				} else {
					err = countOnly(o, r.seen[j.idx], r.base.scan)
				}
				if err != nil {
					r.fail("oracle: read %d (%s): %v", j.idx, o.kind, err)
				}
			}
		}()
	}
	for _, j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
	return len(jobs)
}

// verifyLive checks n read rectangles against the write stream's live
// multiset after the timed phase: a lost write or a stale cache hit shows up
// as a count or row mismatch. The servers must still be up.
func (r *runner) verifyLive(n int) (checked int) {
	if r.mix == nil {
		return 0
	}
	live := r.mix.LiveView()
	scan := func(rect index.Rect, visit func([]float64)) { scanAll(live, rect, visit) }
	n = min(n, len(r.reads))
	answers := make([]answer, n)
	for i := range n {
		status, body, err := r.hc[0].post(r.reads[i].path, r.reads[i].body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			answers[i], err = decodeAnswer(body)
		}
		if err != nil {
			r.fail("live check: read %d: %v", i, err)
			return i
		}
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if err := check(r.reads[i], answers[i], scan); err != nil {
					r.fail("live check: read %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	return n
}

// --- per-segment statistics ---

// percentile returns the p-quantile (nearest rank) of sorted latencies, in
// milliseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latencies returns the sorted latencies of the segment's successful
// operations accepted by keep.
func (sg *segment) latencies(keep func(opKind) bool) []time.Duration {
	var ls []time.Duration
	for _, s := range sg.samples {
		if !s.failed && keep(s.kind) {
			ls = append(ls, s.lat)
		}
	}
	slices.Sort(ls)
	return ls
}
