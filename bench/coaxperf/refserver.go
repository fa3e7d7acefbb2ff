package main

// The reference server: a yardstick for how fast the machine is right now.
//
// The box the benchmark runs on is shared, and its speed drifts by tens of
// per cent over tens of seconds — both wall and CPU time of the servers under
// test inflate together. A spin loop under-reads that drift (the servers
// slow down about twice as much as independent threads do, because a request
// waits for a client, an HTTP round trip and a parallel fan-out that all
// share the two CPUs), so the yardstick has the same shape: a loopback HTTP
// server inside the harness that answers each request by scanning four cold
// windows of an array in parallel and encoding the matches as JSON, driven
// by the same closed-loop clients. Its code never changes with the commit
// under test, so its request rate measures the machine alone.

import (
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	refParts  = 4       // parallel scans per request, as many as scan-heap has shards
	refWindow = 1 << 15 // float64s per scan: 256 KB, a different window each time, so cache-cold

	// refReading is how long one reading of the reference server takes.
	refReading = 200 * time.Millisecond
	// refNominal is the reference server's rate, in requests per second, on
	// the quiet 2-core box the benchmark was sized on. Only a unit: it makes
	// a scaled time equal the measured one on that box.
	refNominal = 2500.0
)

type refServer struct {
	srv  *http.Server
	hc   [clients]*httpClient
	data []float64 // 32 MB of uniform [0,1)
	seq  atomic.Int64
	last float64 // the previous reading, shared by adjacent segments
}

func startRefServer() (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rs := &refServer{data: make([]float64, 1<<22)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range rs.data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rs.data[i] = float64(x>>11) / (1 << 53)
	}
	rs.srv = &http.Server{Handler: http.HandlerFunc(rs.handle)}
	go rs.srv.Serve(ln)
	for c := range rs.hc {
		rs.hc[c] = newHTTPClient(ln.Addr().String())
	}
	return rs, nil
}

func (rs *refServer) close() { rs.srv.Close() }

func (rs *refServer) handle(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	k := int(rs.seq.Add(1))
	var parts [refParts][]float64
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := ((k*refParts + p) * refWindow) % (len(rs.data) - refWindow)
			for _, v := range rs.data[off : off+refWindow] {
				if v >= 0.25 && v < 0.265 { // ~500 of 32 K
					parts[p] = append(parts[p], v)
				}
			}
		}()
	}
	wg.Wait()
	buf := append(make([]byte, 0, 48<<10), `{"rows":[`...)
	for _, part := range parts {
		for _, v := range part {
			buf = strconv.AppendFloat(buf, v*1e6, 'g', -1, 64)
			buf = append(buf, ',')
		}
	}
	w.Write(append(buf, "0]}"...))
}

// rate drives the reference server closed-loop from every client for d and
// returns requests per second.
func (rs *refServer) rate(d time.Duration) float64 {
	var wg sync.WaitGroup
	var done atomic.Int64
	t0 := time.Now()
	for c := range rs.hc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				if status, _, err := rs.hc[c].post("/", []byte(`{"min":[null,0.25],"max":[null,0.265]}`)); err == nil && status == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(t0).Seconds()
}

// bracket runs one load segment between two readings of the reference
// server and appends it to the runner's segments.
func (rs *refServer) bracket(r *runner, load time.Duration) error {
	if rs.last == 0 {
		rs.last = rs.rate(refReading)
	}
	seg, err := r.run(load)
	if err != nil {
		return err
	}
	next := rs.rate(refReading)
	seg.ref, rs.last = (rs.last+next)/2, next
	r.segs = append(r.segs, seg)
	return nil
}
