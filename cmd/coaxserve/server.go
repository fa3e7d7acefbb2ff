package main

// The HTTP front end shared by the serve and router subcommands: one set of
// wire types, one handler set, one cache/coalesce path and one error→status
// table over a backend — the in-process sharded index (local.go) or the
// cluster scatter-gather (router.go). What differs between the two modes is
// the backend value, nothing else.
//
// A /query or /batch answer is its reply bytes from the moment the scan ends
// (encode.go): the backend answers a rectangle with a page — the exact count
// and the rows the reply keeps — which is encoded once; coalesced callers
// and the result cache share the finished body, and a cache hit is one
// Write. encoding/json writes only the cold replies — /stats, /healthz,
// /compact, the slowlog, mutation acks and errors.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/serve"
)

// defaultRowLimit bounds how many rows a query returns when the request
// does not say; counts are always exact regardless of the limit.
const defaultRowLimit = 1000

// Abuse bounds: a request body larger than maxRequestBytes or a batch
// wider than maxBatchQueries is rejected before it can drive the engine
// into buffering an unbounded result set.
const (
	maxRequestBytes = 8 << 20
	maxBatchQueries = 1024
)

// backend is the engine behind the HTTP surface. Its errors carry their own
// status: see writeFailure.
type backend interface {
	// The result cache validates entries against the backend's per-shard
	// mutation versions and the rows its recent writes wrote.
	serve.Invalidator
	Dims() int
	// Columns names the dimensions, or is empty when the backend addresses
	// columns by position only.
	Columns() []string

	Insert(row []float64) error
	Delete(row []float64) error
	Update(old, new []float64) error
	// liveRows is the row count a mutation reply carries.
	liveRows() int64

	// runRows answers r with a page: the exact number of matching rows and
	// the first keep of them (every one when keep is negative). With early
	// the scan stops once keep rows match, and the count counts only those.
	// The page's report is non-nil only with explain.
	runRows(ctx context.Context, r coax.Rect, keep int, early, explain bool) (*coax.HeadResult, error)
	runAgg(ctx context.Context, r coax.Rect, spec index.AggSpec, explain bool) (*coax.AggResult, error)
	// runBatch answers rects[qi] for every qi with a page of at most keep
	// rows, as runRows does without early or explain.
	runBatch(ctx context.Context, rects []coax.Rect, keep int) ([]*coax.HeadResult, error)

	// stats is the GET /stats body, with tier embedded in it.
	stats(tier tierStats) any
	// health is the GET /healthz reply: the liveness form, or with verbose
	// the backend's shape summary. The code is 503 once the backend can no
	// longer answer correctly.
	health(verbose bool, uptime time.Duration) (code int, body any)
}

// front is the serving tier over one backend. qcache and adm may be nil
// (layer disabled); the zero-value tier serves correctly without them.
type front struct {
	be        backend
	start     time.Time
	qcache    *serve.QueryCache
	adm       *serve.Admission
	accessLog bool
	drain     time.Duration
}

// tierFlags declares on fs the serving-tier flags serve and router share.
// Once fs is parsed, the returned function builds the tier they describe.
func tierFlags(fs *flag.FlagSet) func(backend) *front {
	var (
		cacheSize    = fs.Int("cache-size", 4096, "result-cache capacity in entries; hot repeated queries are answered from cache until a write lands inside their rectangle, or a compaction or rebuild reorders their shard (0 disables caching and coalescing)")
		maxInflight  = fs.Int("max-inflight", 0, "admission control: queries executing concurrently before new ones queue (0 disables)")
		maxQueue     = fs.Int("max-queue", -1, "admission control: requests allowed to wait for a slot before shedding with 429 (-1: twice -max-inflight)")
		queueTimeout = fs.Duration("queue-timeout", 100*time.Millisecond, "admission control: longest a queued request waits for a slot before shedding with 429")
		accessLog    = fs.Bool("access-log", false, "log every request to stderr with status and latency")
		drain        = fs.Duration("drain-timeout", 10*time.Second, "how long graceful shutdown waits for in-flight requests")
	)
	return func(be backend) *front {
		f := &front{be: be, start: time.Now(), accessLog: *accessLog, drain: *drain}
		if *cacheSize > 0 {
			f.qcache = serve.NewQueryCache(be, *cacheSize)
		}
		f.adm = newAdmission(*maxInflight, *maxQueue, *queueTimeout)
		return f
	}
}

// newAdmission builds the admission controller the -max-inflight,
// -max-queue and -queue-timeout flags describe; nil when disabled.
func newAdmission(maxInflight, maxQueue int, queueTimeout time.Duration) *serve.Admission {
	if maxInflight <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 2 * maxInflight
	}
	return serve.NewAdmission(maxInflight, maxQueue, queueTimeout)
}

// --- wire types ---

// rectRequest is one rectangle in wire form: per-dimension bounds where
// null (or a missing array) leaves the side unconstrained, plus an
// optional row cap — limit 0 returns counts only, a negative limit streams
// every matching row, omitted defaults to defaultRowLimit. With
// "early": true the engine stops scanning once limit rows are found
// (count then equals the rows returned, not the total matches) — the
// Query-API-v2 early-termination path.
type rectRequest struct {
	Min   []*float64 `json:"min"`
	Max   []*float64 `json:"max"`
	Limit *int       `json:"limit"`
	Early bool       `json:"early"`
	// Agg turns the query into an aggregation pushdown: instead of rows the
	// response carries one aggregate (or one per group) folded inside the
	// engine's batch scan kernels. Limit is ignored (aggregates consume
	// every match) and "early" is rejected.
	Agg *aggRequest `json:"agg,omitempty"`
}

// aggRequest is the wire form of an aggregation: an op ("count", "sum",
// "min", "max", "avg"), the value column by name or position (except
// count), and an optional categorical group-by column.
type aggRequest struct {
	Op         string  `json:"op"`
	Col        *string `json:"col,omitempty"`
	Dim        *int    `json:"dim,omitempty"`
	GroupBy    *string `json:"group_by,omitempty"`
	GroupByDim *int    `json:"group_by_dim,omitempty"`
}

// spec resolves the wire form against a backend's schema, rejecting shapes
// that cannot mean anything (unknown op, sum without a column, count of a
// column, a name the backend does not know).
func (a *aggRequest) spec(be backend) (index.AggSpec, error) {
	op, err := index.ParseAggOp(a.Op)
	if err != nil {
		return index.AggSpec{}, err
	}
	spec := index.AggSpec{Op: op, Col: -1, Group: -1}
	col, hasCol, err := resolveCol(be, a.Col, a.Dim, "col", "dim")
	if err != nil {
		return spec, err
	}
	switch {
	case hasCol && !op.NeedsColumn():
		return spec, fmt.Errorf(`"count" takes no column; drop "col"/"dim"`)
	case !hasCol && op.NeedsColumn():
		return spec, fmt.Errorf("%q needs a value column: set \"col\" or \"dim\"", a.Op)
	case hasCol:
		spec.Col = col
	}
	if group, ok, err := resolveCol(be, a.GroupBy, a.GroupByDim, "group_by", "group_by_dim"); err != nil {
		return spec, err
	} else if ok {
		spec.Group = group
	}
	return spec, nil
}

// resolveCol turns a by-name or by-position column reference into a
// dimension; ok is false when the request gave neither.
func resolveCol(be backend, name *string, dim *int, nameKey, dimKey string) (d int, ok bool, err error) {
	switch {
	case name != nil && dim != nil:
		return 0, false, fmt.Errorf("%q and %q are mutually exclusive", nameKey, dimKey)
	case name != nil:
		cols := be.Columns()
		for i, c := range cols {
			if c == *name {
				return i, true, nil
			}
		}
		if len(cols) == 0 {
			return 0, false, fmt.Errorf("this server addresses columns by position: use %q instead of %q", dimKey, nameKey)
		}
		return 0, false, fmt.Errorf("unknown column %q in %q", *name, nameKey)
	case dim != nil:
		if *dim < 0 || *dim >= be.Dims() {
			return 0, false, fmt.Errorf("%q %d out of range [0,%d)", dimKey, *dim, be.Dims())
		}
		return *dim, true, nil
	}
	return 0, false, nil
}

type batchRequest struct {
	Queries []rectRequest `json:"queries"`
}

type insertRequest struct {
	Row []float64 `json:"row"`
}

type updateRequest struct {
	Old []float64 `json:"old"`
	New []float64 `json:"new"`
}

// tierStats is the serving-tier part of every /stats body: result-cache
// occupancy and hit/eviction counters, and the admission controller's
// inflight/queued/shed numbers. Absent when the layer is disabled.
type tierStats struct {
	Cache     *serve.CacheStats     `json:"cache,omitempty"`
	Admission *serve.AdmissionStats `json:"admission,omitempty"`
}

func (q *rectRequest) rect(dims int) (coax.Rect, error) {
	r := coax.FullRect(dims)
	fill := func(dst []float64, src []*float64, side string) error {
		if src == nil {
			return nil
		}
		if len(src) != dims {
			return fmt.Errorf("%s has %d bounds, index has %d dims", side, len(src), dims)
		}
		for i, v := range src {
			if v == nil {
				continue
			}
			if math.IsNaN(*v) {
				return fmt.Errorf("%s[%d] is NaN", side, i)
			}
			dst[i] = *v
		}
		return nil
	}
	if err := fill(r.Min, q.Min, "min"); err != nil {
		return r, err
	}
	if err := fill(r.Max, q.Max, "max"); err != nil {
		return r, err
	}
	// Inverted bounds would silently match nothing; that is never what a
	// client meant, so reject them up front.
	for i := range r.Min {
		if r.Min[i] > r.Max[i] {
			return r, fmt.Errorf("dimension %d has inverted bounds: min %g > max %g", i, r.Min[i], r.Max[i])
		}
	}
	return r, nil
}

func (q *rectRequest) limit() int {
	if q.Limit == nil {
		return defaultRowLimit
	}
	return *q.Limit
}

// compile validates one wire query against the backend and returns its
// rectangle and, for an aggregation, the resolved spec. "early": true
// promises to stop after limit rows, which needs a positive limit — with
// limit 0 (count only) or negative (stream all) the engine would have to
// silently ignore the flag and run a full scan, so the combination is an
// error rather than a surprise.
func (q *rectRequest) compile(be backend) (r coax.Rect, spec index.AggSpec, err error) {
	if q.Early && q.limit() <= 0 {
		return r, spec, fmt.Errorf(`"early" requires a positive limit, got %d`, q.limit())
	}
	if q.Agg != nil {
		if q.Early {
			return r, spec, fmt.Errorf(`"early" cannot combine with "agg": an aggregate consumes every matching row`)
		}
		if spec, err = q.Agg.spec(be); err != nil {
			return r, spec, err
		}
	}
	r, err = q.rect(be.Dims())
	return r, spec, err
}

// --- errors ---

// requestError marks a failure as the client's: writeFailure answers 400.
type requestError struct{ error }

// unansweredError marks a scatter-gather in which some shard had no replica
// left to answer it: the cluster's fault, so writeFailure answers 502.
type unansweredError struct{ error }

// writeResult finishes a /query or /batch that reached the engine: the
// finished body in one Write with its Content-Length, or the failure.
func (f *front) writeResult(w http.ResponseWriter, req *http.Request, body []byte, err error) {
	if err != nil {
		f.writeFailure(w, req, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		httpRespErrors.Inc()
		fmt.Fprintf(os.Stderr, "writing response: %v\n", err)
	}
}

// writeFailure owns the whole error→status table, for both backends and for
// queries and mutations alike.
func (f *front) writeFailure(w http.ResponseWriter, req *http.Request, err error) {
	var (
		reqErr requestError
		rowErr *lifecycle.RowError
		shed   *cluster.OverloadError
		unans  unansweredError
		encErr encodeError
	)
	switch {
	case errors.As(err, &reqErr), errors.As(err, &rowErr):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, core.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, serve.ErrOverloaded):
		// Shed by this process's admission queue.
		writeOverloaded(w, f.adm.RetryAfter(), err)
	case errors.As(err, &shed):
		// Every replica of some shard shed the request node-side; the hint
		// is the largest any of them gave.
		writeOverloaded(w, shed.RetryAfter, err)
	case req.Context().Err() != nil:
		// The client is gone: nobody to answer.
	case errors.As(err, &unans):
		writeError(w, http.StatusBadGateway, err)
	default:
		if errors.As(err, &encErr) {
			httpRespErrors.Inc()
		}
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeOverloaded(w http.ResponseWriter, retryAfter time.Duration, err error) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, http.StatusTooManyRequests, err)
}

// --- handlers ---

// newMux wires the HTTP surface over f. Both backends are safe for fully
// concurrent use, so handlers need no extra locking. The returned handler
// carries the request-metrics middleware, so everything driven through it
// lands in the HTTP metric families.
func newMux(f *front) http.Handler {
	be := f.be
	mux := http.NewServeMux()
	addObsEndpoints(mux)
	if l, ok := be.(*localBackend); ok {
		l.mount(mux)
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		code, body := be.health(req.URL.Query().Get("verbose") == "1", time.Since(f.start))
		writeJSON(w, code, body)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		var tier tierStats
		if f.qcache != nil {
			cs := f.qcache.Stats()
			tier.Cache = &cs
		}
		if f.adm != nil {
			as := f.adm.Stats()
			tier.Admission = &as
		}
		writeJSON(w, http.StatusOK, be.stats(tier))
	})

	mux.HandleFunc("POST /query", func(w http.ResponseWriter, req *http.Request) {
		var q rectRequest
		if !readJSON(w, req, &q) {
			return
		}
		body, err := f.query(req, &q)
		f.writeResult(w, req, body, err)
	})

	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, req *http.Request) {
		var b batchRequest
		if !readJSON(w, req, &b) {
			return
		}
		body, err := f.batch(req, &b)
		f.writeResult(w, req, body, err)
	})

	// Mutations validate inside the engine (the shared
	// lifecycle.ValidateRow path); writeFailure maps the error kinds.
	mutation := func(w http.ResponseWriter, req *http.Request, err error) {
		if err != nil {
			f.writeFailure(w, req, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int64{"rows": be.liveRows()})
	}
	mux.HandleFunc("POST /insert", func(w http.ResponseWriter, req *http.Request) {
		var ins insertRequest
		if readJSON(w, req, &ins) {
			mutation(w, req, be.Insert(ins.Row))
		}
	})
	mux.HandleFunc("POST /delete", func(w http.ResponseWriter, req *http.Request) {
		var del insertRequest
		if readJSON(w, req, &del) {
			mutation(w, req, be.Delete(del.Row))
		}
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, req *http.Request) {
		var up updateRequest
		if readJSON(w, req, &up) {
			mutation(w, req, be.Update(up.Old, up.New))
		}
	})

	return instrument(mux, f.accessLog)
}

// explainRequested reports whether the request asked for an execution
// report via the explain=true query parameter.
func explainRequested(req *http.Request) bool {
	return req.URL.Query().Get("explain") == "true"
}

// query answers one /query body: validation, admission, then the cached
// row or aggregate execution.
func (f *front) query(req *http.Request, q *rectRequest) ([]byte, error) {
	r, spec, err := q.compile(f.be)
	if err != nil {
		return nil, requestError{err}
	}
	if err := f.adm.Acquire(req.Context()); err != nil {
		return nil, err
	}
	defer f.adm.Release()
	if q.Agg != nil {
		// The key names resolved positions, so "col":"lon" and "dim":3 share
		// one cache line: they are the same computation.
		key := serve.Key(r, 0, false, fmt.Sprintf("%s(%d) by %d", spec.Op, spec.Col, spec.Group))
		return f.answer(req, key, r, func() ([]byte, error) { return f.runAgg(req, r, spec) })
	}
	limit, early := q.limit(), q.Early
	return f.answer(req, serve.Key(r, limit, early, ""), r, func() ([]byte, error) {
		return f.runRows(req, r, limit, early)
	})
}

// answer serves one execution through the hardening layer: cache hit, or
// single-flight coalesced execution whose result the cache retains. Explain
// requests bypass the cache — an execution report describes one particular
// run, and attaching a cached one would be a lie. A coalesced cancellation
// means the leader's client disconnected and cancelled the shared scan; a
// caller whose own request is still live retries directly instead of
// inheriting it. Every other error is the answer, and is never cached.
//
// The body returned is shared by every coalesced caller and every future
// hit: it is only ever written to a connection, never modified.
func (f *front) answer(req *http.Request, key string, r coax.Rect, run func() ([]byte, error)) ([]byte, error) {
	if f.qcache == nil || explainRequested(req) {
		return run()
	}
	v, _, err := f.qcache.Do(key, r, func() (any, error) { return run() })
	if err != nil {
		foreign := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if foreign && req.Context().Err() == nil {
			return run()
		}
		return nil, err
	}
	return v.([]byte), nil
}

// page answers one rectangle into rb: the count covers every match and
// only rb's limit rows are kept, or with early the backend stops scanning
// once that many rows were found.
func (f *front) page(req *http.Request, r coax.Rect, early bool, rb *rowsBody) (reply, error) {
	res, err := f.be.runRows(req.Context(), r, rb.limit, early, explainRequested(req))
	if err != nil {
		return reply{}, err
	}
	rb.page(res)
	return rb.finish(res.Explain)
}

// runRows answers one rectangle.
func (f *front) runRows(req *http.Request, r coax.Rect, limit int, early bool) ([]byte, error) {
	rb := newRowsBody(limit)
	defer rb.release()
	rep, err := f.page(req, r, early, &rb)
	if err != nil {
		return nil, err
	}
	return rep.body(), nil
}

// runAgg answers one aggregation.
func (f *front) runAgg(req *http.Request, r coax.Rect, spec index.AggSpec) ([]byte, error) {
	res, err := f.be.runAgg(req.Context(), r, spec, explainRequested(req))
	if err != nil {
		return nil, err
	}
	rep, err := aggReply(res, spec)
	if err != nil {
		return nil, err
	}
	return rep.body(), nil
}

// batch answers one /batch body. A plain batch is one backend fan-out;
// per-query explain reports (or any early-termination request) need
// per-query executions.
func (f *front) batch(req *http.Request, b *batchRequest) ([]byte, error) {
	if len(b.Queries) > maxBatchQueries {
		return nil, requestError{fmt.Errorf("batch has %d queries, limit is %d", len(b.Queries), maxBatchQueries)}
	}
	rects := make([]coax.Rect, len(b.Queries))
	perQuery := explainRequested(req)
	for i := range b.Queries {
		q := &b.Queries[i]
		if q.Agg != nil {
			// The batch fan-out shares one row visitor across queries;
			// aggregates belong on /query, one at a time.
			return nil, requestError{fmt.Errorf(`query %d: "agg" is not supported in /batch; use /query`, i)}
		}
		r, _, err := q.compile(f.be)
		if err != nil {
			return nil, requestError{fmt.Errorf("query %d: %w", i, err)}
		}
		rects[i] = r
		perQuery = perQuery || q.Early
	}
	if err := f.adm.Acquire(req.Context()); err != nil {
		return nil, err
	}
	defer f.adm.Release()
	bodies := make([]rowsBody, len(rects))
	for i := range bodies {
		bodies[i] = newRowsBody(b.Queries[i].limit())
	}
	defer func() {
		for i := range bodies {
			bodies[i].release()
		}
	}()
	if !perQuery {
		// One fan-out keeps as many rows as the widest query does; each body
		// encodes its own limit of them.
		keep := 0
		for i := range b.Queries {
			if l := b.Queries[i].limit(); l < 0 || keep < 0 {
				keep = -1
			} else {
				keep = max(keep, l)
			}
		}
		pages, err := f.be.runBatch(req.Context(), rects, keep)
		if err != nil {
			return nil, err
		}
		for i, p := range pages {
			bodies[i].page(p)
		}
	}
	replies := make([]reply, len(rects))
	for i := range rects {
		var err error
		if perQuery {
			replies[i], err = f.page(req, rects[i], b.Queries[i].Early, &bodies[i])
		} else {
			replies[i], err = bodies[i].finish(nil) // the fan-out above filled it
		}
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return batchBody(replies), nil
}

func readJSON(w http.ResponseWriter, req *http.Request, v any) bool {
	req.Body = http.MaxBytesReader(w, req.Body, maxRequestBytes)
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	// Decode stops after the first value; a body is exactly one.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("decoding request: unexpected data after the JSON value"))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already committed (status line sent), so the error
		// cannot reach the client as a status — count it and log it instead
		// of discarding it. Typical cause: the client hung up mid-body.
		httpRespErrors.Inc()
		fmt.Fprintf(os.Stderr, "writing response: %v\n", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
