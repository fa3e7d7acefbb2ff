package main

// The reply builder (encode.go) against encoding/json. The structs below are
// the ones the handlers used to fill and hand to json.Encoder; they stay
// here as the shape tests decode replies into and as the oracle the
// builder's bytes must equal.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/serve"
)

type queryResponse struct {
	Count   int           `json:"count"`
	Rows    [][]float64   `json:"rows,omitempty"`
	Agg     *aggResponse  `json:"agg,omitempty"`
	Explain *coax.Explain `json:"explain,omitempty"`
}

type aggResponse struct {
	Op       string     `json:"op"`
	Count    int64      `json:"count"`
	Value    *float64   `json:"value,omitempty"`
	Groups   []aggGroup `json:"groups,omitempty"`
	Complete bool       `json:"complete"`
}

type aggGroup struct {
	Key   float64 `json:"key"`
	Count int64   `json:"count"`
	Value float64 `json:"value"`
}

type batchResponse struct {
	Results []queryResponse `json:"results"`
}

// legacyRows is the row handler this builder replaced.
func legacyRows(rows [][]float64, limit int, exp *coax.Explain) queryResponse {
	resp := queryResponse{Explain: exp}
	for _, row := range rows {
		resp.Count++
		if limit < 0 || len(resp.Rows) < limit {
			resp.Rows = append(resp.Rows, row)
		}
	}
	return resp
}

// legacyAgg is the aggregate shaper it replaced.
func legacyAgg(res *coax.AggResult) queryResponse {
	ar := &aggResponse{Op: res.Op, Count: res.Count, Complete: res.Complete}
	if res.Valid {
		ar.Value = &res.Value
	}
	if res.Groups != nil {
		ar.Groups = make([]aggGroup, len(res.Groups))
		for i, g := range res.Groups {
			ar.Groups[i] = aggGroup(g)
		}
	}
	return queryResponse{Count: int(res.Count), Agg: ar, Explain: res.Explain}
}

func legacyJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("oracle could not encode %+v: %v", v, err)
	}
	return buf.Bytes()
}

// builtRows runs rows through the builder the way a scan would.
func builtRows(t testing.TB, rows [][]float64, limit int, exp *coax.Explain) (rowsBody, reply) {
	t.Helper()
	rb := newRowsBody(limit)
	for _, row := range rows {
		if !rb.add(row) {
			t.Fatal("the builder stopped the scan")
		}
	}
	rep, err := rb.finish(exp)
	if err != nil {
		t.Fatal(err)
	}
	return rb, rep
}

// floatCorpus holds the values where encoding/json's float format changes
// shape, plus every number in the golden files.
var floatCorpus = func() []float64 {
	c := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -0.5, 615, 1221.7836153728867, -78.61393500186526,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
		1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, 1.5e-9, 1e-10, -3e-12,
		1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1.5e300,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1 << 62, 1e15, 1e15 + 0.5, 123456789012345680,
		math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MinInt64, 1.7e308,
		math.Pi, math.E * 1e5, 100, 1000000, 4294967296,
	}
	number := regexp.MustCompile(`-?\d+(\.\d+)?([eE][-+]?\d+)?`)
	for _, file := range []string{"testdata/query_rows.golden.json", "testdata/query_agg.golden.json"} {
		blob, err := os.ReadFile(file)
		if err != nil {
			panic(err)
		}
		for _, m := range number.FindAll(blob, -1) {
			v, err := strconv.ParseFloat(string(m), 64)
			if err != nil {
				panic(err)
			}
			c = append(c, v)
		}
	}
	return c
}()

// floatsFrom turns fuzz bytes into finite floats: each 9-byte chunk is a
// selector and either a corpus index or raw float bits.
func floatsFrom(data []byte) []float64 {
	var out []float64
	for ; len(data) >= 9; data = data[9:] {
		bits := binary.LittleEndian.Uint64(data[1:])
		v := math.Float64frombits(bits)
		if data[0]%3 == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			v = floatCorpus[bits%uint64(len(floatCorpus))]
		}
		out = append(out, v)
	}
	return out
}

// checkEncoding builds one case of every reply kind out of the same floats
// and compares each with the oracle: a /query row reply (with and without
// an execution report), an aggregate and a grouped reply, and a /batch that
// splits the rows across queries with mixed limits.
func checkEncoding(t testing.TB, data []byte, limit int, dims, flags uint8) {
	t.Helper()
	vals := floatsFrom(data)
	width := int(dims % 6)
	var rows [][]float64
	switch {
	case width == 0:
		// Degenerate shapes: empty rows, and a nil row when asked.
		for i := range vals {
			if flags&1 != 0 && i%2 == 0 {
				rows = append(rows, nil)
			} else {
				rows = append(rows, []float64{})
			}
		}
	default:
		for i := 0; i+width <= len(vals); i += width {
			rows = append(rows, vals[i:i+width])
		}
	}
	pick := func(i int) float64 {
		if len(vals) == 0 {
			return 0
		}
		return vals[i%len(vals)]
	}

	var exp *coax.Explain
	if flags&2 != 0 {
		lo, hi := pick(0), pick(1)
		exp = &coax.Explain{
			Columns: []string{"id", `<t&"s>`}, Min: []*float64{&lo, nil}, Max: []*float64{nil, &hi},
			PrimaryFeasible: true, ShardsProbed: len(rows), RowsEmitted: len(rows),
		}
	}

	// /query, rows.
	rb, rep := builtRows(t, rows, limit, exp)
	got, want := rep.body(), legacyJSON(t, legacyRows(rows, limit, exp))
	rb.release()
	if !bytes.Equal(got, want) {
		t.Fatalf("rows reply (limit %d, %d rows × %d):\n got: %s\nwant: %s", limit, len(rows), width, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("rows reply is %d bytes in a %d-byte slice: not exact-size", len(got), cap(got))
	}

	// /query, aggregate and grouped aggregate.
	ops := []string{"count", "sum", "min", "max", "avg"}
	res := &coax.AggResult{
		Op: ops[int(flags>>2)%len(ops)], Count: int64(len(rows)),
		Value: pick(2), Valid: flags&32 != 0, Complete: flags&64 != 0, Explain: exp,
	}
	if flags&128 != 0 {
		res.Groups = []coax.GroupResult{}
		for i := 0; i+1 < len(vals) && i < 16; i += 2 {
			res.Groups = append(res.Groups, coax.GroupResult{Key: vals[i], Count: int64(i) * 1e9, Value: vals[i+1]})
		}
	}
	rep, err := aggReply(res, index.AggSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.body(), legacyJSON(t, legacyAgg(res)); !bytes.Equal(got, want) {
		t.Fatalf("aggregate reply:\n got: %s\nwant: %s", got, want)
	}

	// /batch: the rows dealt round-robin to up to four queries, each with
	// its own limit.
	nq := int(flags>>4) % 5
	limits := []int{limit, 0, -1, 2}
	parts := make([][][]float64, nq)
	for i, row := range rows {
		if nq > 0 {
			parts[i%nq] = append(parts[i%nq], row)
		}
	}
	bodies := make([]rowsBody, nq)
	replies := make([]reply, nq)
	legacy := batchResponse{Results: make([]queryResponse, nq)}
	for i := range parts {
		bodies[i], replies[i] = builtRows(t, parts[i], limits[i], exp)
		legacy.Results[i] = legacyRows(parts[i], limits[i], exp)
	}
	got, want = batchBody(replies), legacyJSON(t, legacy)
	for i := range bodies {
		bodies[i].release()
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch reply (%d queries):\n got: %s\nwant: %s", nq, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("batch reply is %d bytes in a %d-byte slice: not exact-size", len(got), cap(got))
	}
}

func FuzzRowsBody(f *testing.F) {
	// Seeds stay short (eight corpus values each): the engine minimizes every
	// input that finds new coverage, byte by byte.
	for lo := 0; lo < len(floatCorpus); lo += 8 {
		var seed []byte
		for i := lo; i < lo+8; i++ {
			seed = binary.LittleEndian.AppendUint64(append(seed, 0), uint64(i))
		}
		f.Add(seed, lo%5-1, uint8(lo/8), uint8(lo*37))
	}
	f.Add([]byte{}, 5, uint8(3), uint8(0b11100010))
	f.Fuzz(func(t *testing.T, data []byte, limit int, dims, flags uint8) {
		checkEncoding(t, data, limit, dims, flags)
	})
}

// TestRowsBodyMatchesEncodingJSON is the seeded form of FuzzRowsBody, so the
// equivalence is checked on every plain `go test`.
func TestRowsBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 9*rng.Intn(120))
		rng.Read(data)
		limit := rng.Intn(40) - 2
		if i%10 == 0 {
			limit = defaultRowLimit
		}
		checkEncoding(t, data, limit, uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	// Every corpus value alone, in every position it can take.
	for _, v := range floatCorpus {
		data := binary.LittleEndian.AppendUint64([]byte{1}, math.Float64bits(v))
		for _, flags := range []uint8{0, 32, 128 | 32, 2} {
			checkEncoding(t, bytes.Repeat(data, 3), -1, 1, flags)
		}
	}
}

// A non-finite number has no JSON form: the builder reports it instead of
// writing something a client cannot parse.
func TestReplyRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rb := newRowsBody(-1)
		rb.add([]float64{1, v})
		if _, err := rb.finish(nil); err == nil {
			t.Errorf("row holding %v: no error", v)
		}
		rb.release()
		if _, err := aggReply(&coax.AggResult{Op: "sum", Value: v, Valid: true}, index.AggSpec{Op: index.AggSum, Col: 1}); err == nil {
			t.Errorf("aggregate %v: no error", v)
		}
		if _, err := aggReply(&coax.AggResult{Op: "sum", Groups: []coax.GroupResult{{Key: 1, Value: v}}}, index.AggSpec{}); err == nil {
			t.Errorf("grouped aggregate %v: no error", v)
		}
	}
}

// A scratch buffer that grew past maxPooledScratch is dropped, not pooled.
func TestOversizeScratchNotPooled(t *testing.T) {
	rb := newRowsBody(-1)
	row := []float64{math.Pi, math.E}
	for len(rb.rows) <= maxPooledScratch {
		rb.add(row)
	}
	scratch := rb.scratch
	rb.release()
	if cap(*scratch) > maxPooledScratch {
		t.Fatalf("a %d-byte scratch buffer went back to the pool", cap(*scratch))
	}
}

// hitFixture is a cache-fronted server over the test index with the default
// 1000-row reply already cached, a request for it, and a recorder whose
// buffer already fits the body.
func hitFixture(t testing.TB) (f *front, req *http.Request, rec *httptest.ResponseRecorder, bodyLen int) {
	t.Helper()
	be := testBackend(testIndex(t))
	f = &front{be: be, qcache: serve.NewQueryCache(be, 64)}
	req = httptest.NewRequest(http.MethodPost, "/query", nil)
	rec = httptest.NewRecorder()
	body, err := f.query(req, &rectRequest{})
	f.writeResult(rec, req, body, err)
	if err != nil || rec.Code != http.StatusOK || rec.Body.Len() != len(body) {
		t.Fatalf("priming query: %v, status %d, %d of %d bytes", err, rec.Code, rec.Body.Len(), len(body))
	}
	var decoded queryResponse
	if err := json.Unmarshal(body, &decoded); err != nil || len(decoded.Rows) != defaultRowLimit {
		t.Fatalf("priming query: %v, %d rows", err, len(decoded.Rows))
	}
	return f, req, rec, len(body)
}

// The hit path allocates a fixed handful of small objects — the decoded
// rectangle, the cache key, two header values — and nothing that grows with
// the reply: no re-encode, no copy of the body.
func TestQueryHitAllocs(t *testing.T) {
	f, req, rec, bodyLen := hitFixture(t)
	hit := func() {
		rec.Body.Reset()
		body, err := f.query(req, &rectRequest{})
		f.writeResult(rec, req, body, err)
	}
	hits := f.qcache.Stats().Hits

	const maxAllocs = 16 // measured: 8
	if got := testing.AllocsPerRun(200, hit); got > maxAllocs {
		t.Errorf("a cache hit made %.0f allocations, ceiling %d", got, maxAllocs)
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / runs
	if perHit > 1024 || int(perHit) > bodyLen/16 {
		t.Errorf("a cache hit allocated %d bytes for a %d-byte reply", perHit, bodyLen)
	}
	if got := f.qcache.Stats().Hits - hits; got < 2*runs {
		t.Fatalf("only %d of the measured queries were cache hits", got)
	}
	if rec.Body.Len() != bodyLen {
		t.Fatalf("hit wrote %d bytes, the miss wrote %d", rec.Body.Len(), bodyLen)
	}
}

func BenchmarkQueryHit(b *testing.B) {
	f, req, rec, bodyLen := hitFixture(b)
	q := &rectRequest{}
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		body, err := f.query(req, q)
		f.writeResult(rec, req, body, err)
	}
}

// BenchmarkQueryHitAfterWrite is a hit whose shard moved since the answer
// was cached: before each iteration (untimed) a row outside the cached
// latitude band is inserted or deleted again, so every lookup finds a moved
// version, asks the shard whether the write touched the band, and serves the
// revalidated entry.
func BenchmarkQueryHitAfterWrite(b *testing.B) {
	f, req, rec, _ := hitFixture(b)
	lo, hi := 40.0, 41.0
	q := &rectRequest{Min: []*float64{nil, nil, &lo, nil}, Max: []*float64{nil, nil, &hi, nil}}
	body, err := f.query(req, q)
	if err != nil {
		b.Fatal(err)
	}
	outside := []float64{1, 1, 45, 1}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	revalidated := f.qcache.Stats().Revalidations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		write := f.be.Insert
		if i%2 == 1 {
			write = f.be.Delete
		}
		if err := write(outside); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rec.Body.Reset()
		body, err := f.query(req, q)
		f.writeResult(rec, req, body, err)
	}
	b.StopTimer()
	if got := f.qcache.Stats().Revalidations - revalidated; got != int64(b.N) {
		b.Fatalf("%d of %d lookups were revalidated hits", got, b.N)
	}
}

// BenchmarkQueryMiss moves one bound every iteration, so each query is a
// new cache key: scan, encode, Put.
func BenchmarkQueryMiss(b *testing.B) {
	f, req, rec, bodyLen := hitFixture(b)
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		lo := -1 - float64(i) // ids start at 0: every row still matches
		body, err := f.query(req, &rectRequest{Min: []*float64{&lo, nil, nil, nil}})
		f.writeResult(rec, req, body, err)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
}

// BenchmarkAggMiss is BenchmarkQueryMiss's aggregate twin: the same moving
// bound, so each request is a new cache key — scan, fold, encode a reply of
// a hundred bytes, Put. Against BenchmarkQueryMiss it separates what a miss
// costs in the handler from what it costs in the row reply.
func BenchmarkAggMiss(b *testing.B) {
	f, req, rec, _ := hitFixture(b)
	dim := 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		lo := -1 - float64(i) // ids start at 0: every row still matches
		body, err := f.query(req, &rectRequest{Min: []*float64{&lo, nil, nil, nil}, Agg: &aggRequest{Op: "sum", Dim: &dim}})
		f.writeResult(rec, req, body, err)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
}
