package main

// Serving-tier observability: the HTTP metric families, the request
// middleware (latency, in-flight, access log), the slow-query ring buffer,
// the opt-in debug listener (pprof/expvar/metrics), and the graceful-
// shutdown helper. The engine-side families live in internal/obs/metrics.go
// and are updated by the engine itself; this file only adds what the HTTP
// layer can see.

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/obs"
)

// HTTP-plane metric families.
var (
	httpRequests   = obs.NewCounter("coax_http_requests_total", "HTTP requests served.")
	httpErrors     = obs.NewCounter("coax_http_errors_total", "HTTP responses with a 4xx or 5xx status.")
	httpRespErrors = obs.NewCounter("coax_http_response_errors_total", "Answers that could not be encoded (replied as 500) and bodies that failed to send after the status was committed.")
	httpSeconds    = obs.NewHistogram("coax_http_request_seconds", "HTTP request latency in seconds.", 1e-5, 60)
	httpInflight   = obs.NewGauge("coax_http_inflight_requests", "HTTP requests currently being served.")
	slowQueries    = obs.NewCounter("coax_slow_queries_total", "Queries slower than the slow-query threshold.")

	snapshotPageErrors = obs.NewCounter("coax_snapshot_page_errors_total", "Requests refused because a page of the mapped snapshot failed its checks.")
)

// --- request middleware ---

// statusWriter captures the response status for metrics and access logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps h with the HTTP-plane metrics and, when enabled, a
// per-request access log line on stderr.
func instrument(h http.Handler, accessLog bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		httpInflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, req)
		elapsed := time.Since(start)
		httpInflight.Add(-1)
		httpRequests.Inc()
		httpSeconds.Observe(elapsed.Seconds())
		if sw.status >= 400 {
			httpErrors.Inc()
		}
		if accessLog {
			fmt.Fprintf(os.Stderr, "%s %s %s %d %v\n",
				start.Format(time.RFC3339), req.Method, req.URL.Path, sw.status, elapsed.Round(time.Microsecond))
		}
	})
}

// --- slow-query log ---

// slowEntry is one logged slow query: when it ran, how long it took, and
// its full EXPLAIN report.
type slowEntry struct {
	At        time.Time     `json:"at"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Explain   *coax.Explain `json:"explain"`
}

// slowLog is a fixed-size ring buffer of the most recent slow queries.
// Old entries are overwritten; Total keeps counting.
type slowLog struct {
	threshold time.Duration

	mu    sync.Mutex
	buf   []slowEntry
	next  int
	total int64
}

func newSlowLog(threshold time.Duration, size int) *slowLog {
	if size <= 0 {
		size = 128
	}
	return &slowLog{threshold: threshold, buf: make([]slowEntry, 0, size)}
}

// observe records exp when the query exceeded the threshold.
func (l *slowLog) observe(exp *coax.Explain) {
	if l == nil || exp == nil || exp.Elapsed < l.threshold {
		return
	}
	slowQueries.Inc()
	e := slowEntry{At: time.Now(), ElapsedMS: float64(exp.Elapsed) / float64(time.Millisecond), Explain: exp}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % len(l.buf)
	}
	l.total++
	l.mu.Unlock()
}

// entries returns the logged queries, newest first.
func (l *slowLog) entries() (out []slowEntry, total int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out = make([]slowEntry, 0, len(l.buf))
	// The ring holds [next..end) then [0..next) in age order; walk it
	// backwards for newest-first.
	for i := 0; i < len(l.buf); i++ {
		pos := (l.next - 1 - i + 2*len(l.buf)) % len(l.buf)
		out = append(out, l.buf[pos])
	}
	return out, l.total
}

type slowlogResponse struct {
	ThresholdMS float64     `json:"threshold_ms"`
	Total       int64       `json:"total"`
	Entries     []slowEntry `json:"entries"`
}

// --- endpoints ---

// addObsEndpoints mounts the observability surface on mux: /metrics
// (Prometheus text) and /debug/vars (expvar).
func addObsEndpoints(mux *http.ServeMux) {
	obs.PublishExpvar()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w)
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
}

// newDebugMux builds the opt-in debug listener's handler: pprof, expvar,
// metrics, and the slowlog. Handlers are mounted explicitly so nothing
// leaks onto http.DefaultServeMux and nothing is served unless the
// operator passed -debug-addr.
func newDebugMux(l *localBackend) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	addObsEndpoints(mux)
	mux.HandleFunc("GET /debug/slowlog", l.serveSlowlog)
	return mux
}

// listenAndServe serves f on addr until SIGINT/SIGTERM, then drains.
func (f *front) listenAndServe(addr string) error {
	srv := &http.Server{Addr: addr, Handler: newMux(f), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntilShutdown(srv, nil, ctx, f.drain)
}

// serveUntilShutdown runs srv until it fails or ctx is cancelled (the
// SIGINT/SIGTERM path), then drains in-flight requests for at most drain
// before forcing the listener closed. A clean drain returns nil. ln may be
// nil, in which case srv listens on its own Addr; tests pass an ephemeral
// listener so they know the port.
func serveUntilShutdown(srv *http.Server, ln net.Listener, ctx context.Context, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		if ln != nil {
			errc <- srv.Serve(ln)
		} else {
			errc <- srv.ListenAndServe()
		}
	}()
	select {
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "shutting down: draining in-flight requests (up to %v)\n", drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("drain timeout exceeded: %w", err)
		}
		return nil
	}
}
