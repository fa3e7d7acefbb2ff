package main

// The traced run (--trace 1) produces the per-layer numbers. Per workload it
//
//  1. cold-starts the servers once, warms them up, and applies one untraced
//     closed-loop segment bracketed by scrapes of /metrics and /debug/vars —
//     the counts (cache hits, pages, RPCs, allocations) and the metrics that
//     exist on one workload only (agg_*, write_*, snapshot_bytes_per_row);
//  2. replays TraceOps operations over HTTP with one client twice: untraced,
//     then traced with one span per request (their p50 ratio is the tracing
//     overhead);
//  3. stops the servers and replays the traced operations in process against
//     an identically built engine, with a span around every call into a
//     layer's public functions.
//
// Spans stay in memory until the replay ends and are then written to
// bench/out/trace-<workload>.jsonl. All spans are recorded from this file —
// the layers themselves are not instrumented by the benchmark.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/gridfile"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/rtree"
	"github.com/coax-index/coax/internal/serve"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/wire"
)

// perLayer lists every per-layer metric with its unit; BENCHMARK.json's
// per_layer list mirrors it. A metric whose layer is not on a workload's
// path reports 0 there.
var perLayer = []struct{ name, unit string }{
	// set-up -> setup_s
	{"dataset.generate_s", "s"}, {"softfd.detect_s", "s"}, {"core.build_s", "s"}, {"shard.build_s", "s"},
	{"mmapsnap.encode_s", "s"}, {"mmapsnap.open_ms", "ms"},
	// http -> rows_p50_ms, agg_p50_ms
	{"http.rows_overhead_ms", "ms"}, {"http.agg_overhead_ms", "ms"}, {"http.resp_bytes_per_req", "B"},
	// serve -> throughput_rps, rows_p50_ms on hot-mixed
	{"serve.cache_hit_ratio", "ratio"}, {"serve.stale_evict_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"},
	{"serve.key_ns", "ns"}, {"serve.hit_ns", "ns"}, {"serve.miss_overhead_ns", "ns"},
	// shard -> rows_p50_ms, agg_p50_ms on scan-heap
	{"shard.exec_rows_ms", "ms"}, {"shard.exec_agg_ms", "ms"}, {"shard.shards_probed_per_query", "count"},
	{"shard.fanout_self_ms", "ms"},
	// core -> rows_p50_ms, agg_p50_ms, server_cpu_ms_per_req on scan-heap
	{"core.exec_rows_ms", "ms"}, {"core.exec_agg_ms", "ms"}, {"core.translate_ns", "ns"},
	{"core.translations_per_query", "count"}, {"core.infeasible_ratio", "ratio"},
	{"core.primary_ms", "ms"}, {"core.outlier_ms", "ms"}, {"core.rows_scanned_per_match", "ratio"},
	{"core.pages_per_query", "count"}, {"core.outlier_scan_share", "ratio"},
	// kernels -> agg_p50_ms on scan-heap
	{"index.select_rect_ns_per_row", "ns"}, {"gridfile.scanbatch_ns_per_row", "ns"}, {"gridfile.batches_per_query", "count"},
	// mmapsnap -> rows_p50_ms, rows_p99_ms, rss_mb on mapped-cold
	{"mmapsnap.mapped_over_heap_ratio", "ratio"}, {"mmapsnap.decode_us_per_page", "us"}, {"mmapsnap.file_mb", "MB"},
	// wire -> rows_p50_ms on cluster-scatter
	{"wire.encode_ns_per_row", "ns"}, {"wire.decode_ns_per_row", "ns"}, {"wire.bytes_per_row", "B"}, {"wire.frames_per_query", "count"},
	// cluster -> rows_p50_ms, rows_p99_ms on cluster-scatter
	{"cluster.exec_ms", "ms"}, {"cluster.tax_ms", "ms"}, {"cluster.rpcs_per_query", "count"},
	{"cluster.hedge_fired_ratio", "ratio"}, {"cluster.hedge_win_ratio", "ratio"},
	// lifecycle -> write_p50_ms, rows_p50_ms on hot-mixed
	{"lifecycle.insert_us", "us"}, {"lifecycle.delete_us", "us"}, {"lifecycle.update_us", "us"},
	{"lifecycle.outlier_insert_ratio", "ratio"}, {"lifecycle.rebuilds", "count"}, {"lifecycle.sweeps", "count"},
	// runtime -> server_cpu_ms_per_req, rss_mb everywhere
	{"runtime.alloc_kb_per_req", "kB"}, {"runtime.mallocs_per_req", "count"},
	// paper: the claim shape on the production structures (scan-heap)
	{"paper.coax_vs_rtree_speedup", "ratio"}, {"paper.coax_vs_fullgrid_speedup", "ratio"}, {"paper.rtree_over_coax_overhead", "ratio"},
	{"trace.overhead_pct", "%"},
	// end-to-end metrics of one workload only (untraced segment of this run)
	{"agg_p50_ms", "ms"}, {"agg_p99_ms", "ms"}, {"write_p50_ms", "ms"}, {"write_p95_ms", "ms"},
	{"snapshot_bytes_per_row", "B/row"},
}

// --- spans ---

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a request's root span
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; one goroutine uses it at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// do runs fn inside a span and returns the span's id for use as a parent.
func (t *tracer) do(req, parent int32, name string, fn func(id int32)) time.Duration {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	return end - start
}

// add records a span measured elsewhere (the engine's own per-shard timing).
func (t *tracer) add(req, parent int32, name string, start time.Duration, elapsed time.Duration) {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(start + elapsed)})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- scraping the servers ---

// scrape reads the front process's /metrics (Prometheus text; name{labels}
// -> value) and its Go memstats from /debug/vars.
func scrape(hc *httpClient) (map[string]float64, error) {
	text, err := hc.getText("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	var vars struct {
		Memstats struct {
			TotalAlloc float64
			Mallocs    float64
		} `json:"memstats"`
	}
	if err := hc.getJSON("/debug/vars", &vars); err != nil {
		return nil, err
	}
	m["memstats.TotalAlloc"], m["memstats.Mallocs"] = vars.Memstats.TotalAlloc, vars.Memstats.Mallocs
	return m, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- the traced run ---

func (h *harness) traceWorkload(s *spec) (workloadResult, error) {
	L := map[string]float64{}
	p, err := h.prepare(s, 1)
	if err != nil {
		return workloadResult{}, err
	}
	r := p.r

	// 1. untraced closed-loop segment between two scrapes: a quarter of the
	// run's seconds, the rest of which the replays below use up.
	ref, err := startRefServer()
	if err != nil {
		return workloadResult{}, err
	}
	defer ref.close()
	dur := time.Duration(h.seconds / 4 * float64(time.Second))
	before, err := scrape(r.hc[0])
	if err != nil {
		return workloadResult{}, err
	}
	if err := ref.bracket(r, dur); err != nil {
		return workloadResult{}, err
	}
	after, err := scrape(r.hc[0])
	if err != nil {
		return workloadResult{}, err
	}
	d := func(name string) float64 { return after[name] - before[name] }
	ops := float64(len(r.segs[0].samples))
	lookups := d("coax_cache_hits_total") + d("coax_cache_misses_total")
	L["serve.cache_hit_ratio"] = ratio(d("coax_cache_hits_total"), lookups)
	L["serve.stale_evict_ratio"] = ratio(d("coax_cache_stale_evictions_total"), lookups)
	L["serve.coalesced_ratio"] = ratio(d("coax_coalesced_requests_total"), lookups)
	L["runtime.alloc_kb_per_req"] = ratio(d("memstats.TotalAlloc"), ops) / 1000
	L["runtime.mallocs_per_req"] = ratio(d("memstats.Mallocs"), ops)
	if s.Deploy == deployCluster {
		L["wire.frames_per_query"] = ratio(d("coax_wire_frames_recv_total"), ops)
		L["cluster.rpcs_per_query"] = ratio(d("coax_cluster_rpcs_total"), ops)
		L["cluster.hedge_fired_ratio"] = ratio(d("coax_cluster_hedged_reads_total"), ops)
		L["cluster.hedge_win_ratio"] = ratio(d("coax_cluster_hedge_wins_total"), d("coax_cluster_hedged_reads_total"))
	}
	if s.WriteFrac > 0 {
		L["lifecycle.outlier_insert_ratio"] = ratio(d("coax_insert_outliers_total"), d("coax_inserts_total")+d("coax_updates_total"))
	}

	// 2. one-client HTTP replay, alternately untraced and with a span.
	n := s.TraceOps
	tr := newTracer(n * 24)
	plain, traced, tracedOps := r.replay(n, tr)
	rowsHTTP := replayP50(traced, opRows)
	aggHTTP := replayP50(traced, opAgg)
	L["trace.overhead_pct"] = 100 * (ratio(rowsHTTP, replayP50(plain, opRows)) - 1)
	var respBytes float64
	for _, sm := range traced {
		respBytes += float64(sm.bytes)
	}
	L["http.resp_bytes_per_req"] = ratio(respBytes, float64(len(traced)))

	// Background work is counted over the servers' whole life.
	if s.WriteFrac > 0 {
		end, err := scrape(r.hc[0])
		if err != nil {
			return workloadResult{}, err
		}
		L["lifecycle.rebuilds"] = end["coax_rebuilds_total"]
		L["lifecycle.sweeps"] = end["coax_compactor_sweeps_total"]
	}

	// 3. servers down, then the same operations in process.
	checked := r.verifyLive(64)
	children.stopProcs(r.dep.procs)
	checked += r.verify()
	ip, err := h.inProcess(s, p.tab, r, tracedOps, tr, L)
	if err != nil {
		return workloadResult{}, err
	}
	if ip.rows > 0 {
		L["http.rows_overhead_ms"] = rowsHTTP - ip.rows
	}
	if ip.agg > 0 {
		L["http.agg_overhead_ms"] = aggHTTP - ip.agg
	}
	if err := tr.write(filepath.Join(h.out, "trace-"+s.Name+".jsonl")); err != nil {
		return workloadResult{}, err
	}

	wr := newWorkloadResult(p, dur, checked)
	wr.Ops += len(plain) + len(traced)
	wr.Layers = map[string]metric{}
	L["mmapsnap.file_mb"] = float64(r.dep.snapBytes) / 1e6
	for _, m := range workloadSpecific {
		L[m.name] = wr.Metrics[m.name].Value
	}
	for _, m := range perLayer {
		wr.Layers[m.name] = metric{L[m.name], m.unit}
	}
	return wr, nil
}

// replay sends 2n of client 0's operations one at a time, in pairs that are
// alternately traced (one span per request) and not, so that both halves
// see the same machine. It returns both sets of samples and the traced
// operations. The cyclic workloads replay the head of the seeded list, so
// the counts taken from these operations repeat exactly for a seed; a Zipf
// or write stream continues where the timed segment left it.
func (r *runner) replay(n int, tr *tracer) (plain, traced []sample, sent []op) {
	r.cursor.Store(0)
	for i := range 2 * n {
		o, idx := r.nextOp(0)
		if i/2%2 == 1 {
			plain = append(plain, r.exec(0, &o, idx, false))
			continue
		}
		tr.do(int32(len(sent)+1), 0, "http."+o.kind.String(), func(int32) {
			traced = append(traced, r.exec(0, &o, idx, false))
		})
		sent = append(sent, o)
	}
	if r.mix == nil {
		r.noteCounts(plain)
		r.noteCounts(traced)
	}
	return plain, traced, sent
}

func replayP50(samples []sample, kind opKind) float64 {
	sg := segment{samples: samples}
	return percentile(sg.latencies(func(k opKind) bool { return k == kind }), 0.5)
}

// --- in-process replay ---

type inProcessP50 struct{ rows, agg float64 }

// buildEngine builds, in process, the sharded engine the workload's server
// builds at start-up, timing the set-up phases into L.
func buildEngine(s *spec, tab *dataset.Table, shards int, L map[string]float64) (*shard.Sharded, error) {
	opt := core.DefaultOptions()
	t0 := time.Now()
	fd, err := softfd.Detect(tab, opt.SoftFD)
	if err != nil {
		return nil, err
	}
	L["softfd.detect_s"] = time.Since(t0).Seconds()
	so := shard.DefaultOptions()
	so.NumShards = shards
	t0 = time.Now()
	eng, err := shard.BuildWithFD(tab, fd, opt, so)
	if err != nil {
		return nil, err
	}
	L["shard.build_s"] = time.Since(t0).Seconds()
	// One shard's worth of rows, built alone: the serial unit shard.Build
	// runs in parallel.
	t0 = time.Now()
	if _, err := core.BuildWithFD(tab.Slice(0, tab.Len()/shards), fd, opt); err != nil {
		return nil, err
	}
	L["core.build_s"] = time.Since(t0).Seconds()
	return eng, nil
}

func (h *harness) inProcess(s *spec, tab *dataset.Table, r *runner, ops []op, tr *tracer, L map[string]float64) (inProcessP50, error) {
	t0 := time.Now()
	s.table()
	L["dataset.generate_s"] = time.Since(t0).Seconds()

	var eng *shard.Sharded
	var err error
	switch s.Deploy {
	case deploySnapshot:
		path := filepath.Join(h.out, s.Name+"-trace.v3")
		heap, times, err := buildSnapshot(s, path)
		if err != nil {
			return inProcessP50{}, err
		}
		L["shard.build_s"], L["mmapsnap.encode_s"] = times.build.Seconds(), times.encode.Seconds()
		t0 = time.Now()
		sn, err := coax.OpenFile(path)
		if err != nil {
			return inProcessP50{}, err
		}
		defer sn.Close()
		L["mmapsnap.open_ms"] = float64(time.Since(t0)) / 1e6
		if eng, err = sn.Serving(0); err != nil {
			return inProcessP50{}, err
		}
		if err := mappedVsHeap(path, eng, heap, ops, L); err != nil {
			return inProcessP50{}, err
		}
	case deployCluster:
		// The single-process engine cluster.tax_ms is measured against:
		// what scan-heap serves, at this row count.
		if eng, err = buildEngine(s, tab, 4, L); err != nil {
			return inProcessP50{}, err
		}
	default:
		if eng, err = buildEngine(s, tab, s.Shards, L); err != nil {
			return inProcessP50{}, err
		}
	}

	out := replayEngine(eng, ops, tr, L)
	serveMicro(eng, ops, L)
	kernelMicro(tab, ops, L)
	if s.Deploy == deployCluster {
		if err := clusterInProcess(s, tab, ops, tr, L); err != nil {
			return inProcessP50{}, err
		}
		L["cluster.tax_ms"] = L["cluster.exec_ms"] - L["shard.exec_rows_ms"]
		wireMicro(tab, L)
	}
	if s.PaperShape {
		if err := paperShape(tab, eng, ops, L); err != nil {
			return inProcessP50{}, err
		}
	}
	return out, nil
}

// replayEngine runs the operations against the sharded engine the way the
// server does (result cache in front of the fan-out), then calls each lower
// layer directly — core.Exec per spanned shard, and its constituents
// Translate, Primary().Scan/ScanBatch and Outliers().Scan/ScanBatch — with
// a span around each call. The direct calls are serial, so their sums are
// work, not wall time.
func replayEngine(eng *shard.Sharded, ops []op, tr *tracer, L map[string]float64) inProcessP50 {
	qc := serve.NewQueryCache(eng, cacheEntries)
	var (
		rowsWall, aggWall, fanoutSelf             []float64
		probed, queries, aggQueries               float64
		translations, infeasible                  float64
		pages, scanned, matched, outScanned       float64
		batches, batchRows                        float64
		batchTime                                 time.Duration
		insertUS, deleteUS, updateUS              []float64
		count                                     int
		countRow                                  = func([]float64) bool { count++; return true }
		reqBase                                   = int32(len(ops)) // in-process request ids follow the HTTP ones
		coreRows, coreAgg, primaryMS, outlierMS   []float64
		translateN                                int
		translateTotal                            time.Duration
		usOf                                      = func(d time.Duration) float64 { return float64(d) / 1e3 }
		msOf                                      = func(d time.Duration) float64 { return float64(d) / 1e6 }
		directCore, directPrimary, directOutliers time.Duration
	)
	for i := range ops {
		o := &ops[i]
		req := reqBase + int32(i+1)
		switch o.kind {
		case opInsert:
			insertUS = append(insertUS, usOf(tr.do(req, 0, "shard.Insert", func(int32) { eng.Insert(o.row) })))
			continue
		case opDelete:
			deleteUS = append(deleteUS, usOf(tr.do(req, 0, "shard.Delete", func(int32) { eng.Delete(o.row) })))
			continue
		case opUpdate:
			updateUS = append(updateUS, usOf(tr.do(req, 0, "shard.Update", func(int32) { eng.Update(o.row, o.repl) })))
			continue
		}

		// The serving path: cache lookup, fan-out on a miss.
		var rep shard.Report
		var wall time.Duration
		ran := false
		tr.do(req, 0, "serve.QueryCache.Do", func(parent int32) {
			desc := ""
			if o.kind == opAgg {
				desc = fmt.Sprintf("%s(#%d)", o.agg.Op, o.agg.Col)
			}
			qc.Do(serve.Key(o.rect, o.limit, false, desc), o.rect, func() (any, error) {
				ran = true
				st := obs.NewTrace()
				spec := index.Spec{Trace: st}
				name := "shard.Exec"
				if o.kind == opAgg {
					name = "shard.ExecAgg"
				}
				var start time.Duration
				var execID int32
				wall = tr.do(req, parent, name, func(id int32) {
					execID, start = id, time.Since(tr.t0)
					if o.kind == opAgg {
						eng.ExecAgg(o.rect, spec, o.agg, &rep)
					} else {
						eng.Exec(o.rect, spec, countRow, &rep)
					}
				})
				var slowest time.Duration
				for _, sp := range st.Spans() {
					tr.add(req, execID, sp.Name, start, sp.Elapsed)
					slowest = max(slowest, sp.Elapsed)
				}
				fanoutSelf = append(fanoutSelf, msOf(wall-slowest))
				return struct{}{}, nil
			})
		})
		if ran {
			queries++
			probed += float64(rep.ShardsProbed)
			translations += float64(len(rep.Core.Translations))
			for _, t := range rep.Core.Translations {
				if !t.Feasible {
					infeasible++
				}
			}
			pages += float64(rep.Core.Primary.Pages + rep.Core.Outlier.Pages)
			scanned += float64(rep.Core.Primary.Scanned + rep.Core.Outlier.Scanned)
			outScanned += float64(rep.Core.Outlier.Scanned)
			matched += float64(rep.Core.Primary.Matched + rep.Core.Outlier.Matched)
			if o.kind == opAgg {
				aggWall = append(aggWall, msOf(wall))
			} else {
				rowsWall = append(rowsWall, msOf(wall))
			}
		}

		// The layers below, called directly on every shard the rectangle
		// spans.
		directCore, directPrimary, directOutliers = 0, 0, 0
		lo, hi := eng.ShardSpan(o.rect)
		for si := lo; si <= hi; si++ {
			eng.WithShard(si, func(c *core.COAX) error {
				shardName := fmt.Sprintf("[%d]", si)
				if o.kind == opAgg {
					directCore += tr.do(req, 0, "core.ExecAgg"+shardName, func(int32) {
						c.ExecAgg(o.rect, index.Spec{}, index.NewAggState(o.agg), nil)
					})
				} else {
					directCore += tr.do(req, 0, "core.Exec"+shardName, func(int32) {
						c.Exec(o.rect, index.Spec{}, countRow, nil)
					})
				}
				tr.do(req, 0, "core.parts"+shardName, func(parent int32) {
					var routed index.Rect
					var feasible bool
					translateTotal += tr.do(req, parent, "core.Translate", func(int32) { routed, feasible = c.Translate(o.rect) })
					translateN++
					if feasible && c.Primary() != nil {
						var probe index.Probe
						if o.kind == opAgg {
							st := index.NewAggState(o.agg)
							dt := tr.do(req, parent, "gridfile.ScanBatch", func(int32) {
								c.Primary().ScanBatch(routed.Intersect(o.rect), func(b *index.Batch) bool { st.FoldBatch(b); return true }, &probe)
							})
							directPrimary += dt
							batchTime += dt
							batches += float64(probe.Batches)
							batchRows += float64(probe.Scanned)
						} else {
							directPrimary += tr.do(req, parent, "gridfile.Scan", func(int32) {
								c.Primary().Scan(routed, func(row []float64) bool { return !o.rect.Contains(row) || countRow(row) }, &probe)
							})
						}
					}
					if c.Outliers() != nil {
						if bs, ok := c.Outliers().(index.ScanBatcher); ok && o.kind == opAgg {
							st := index.NewAggState(o.agg)
							directOutliers += tr.do(req, parent, "outliers.ScanBatch", func(int32) {
								bs.ScanBatch(o.rect, func(b *index.Batch) bool { st.FoldBatch(b); return true }, nil)
							})
						} else {
							directOutliers += tr.do(req, parent, "outliers.Scan", func(int32) { c.Outliers().Scan(o.rect, countRow, nil) })
						}
					}
				})
				return nil
			})
		}
		if o.kind == opAgg {
			aggQueries++
			coreAgg = append(coreAgg, msOf(directCore))
		} else {
			coreRows = append(coreRows, msOf(directCore))
			primaryMS = append(primaryMS, msOf(directPrimary))
			outlierMS = append(outlierMS, msOf(directOutliers))
		}
	}
	L["shard.exec_rows_ms"], L["shard.exec_agg_ms"] = median(rowsWall), median(aggWall)
	L["shard.fanout_self_ms"] = median(fanoutSelf)
	L["shard.shards_probed_per_query"] = ratio(probed, queries)
	L["core.exec_rows_ms"], L["core.exec_agg_ms"] = median(coreRows), median(coreAgg)
	L["core.translate_ns"] = ratio(float64(translateTotal), float64(translateN))
	L["core.translations_per_query"] = ratio(translations, queries)
	L["core.infeasible_ratio"] = ratio(infeasible, translations)
	L["core.primary_ms"], L["core.outlier_ms"] = median(primaryMS), median(outlierMS)
	L["core.rows_scanned_per_match"] = ratio(scanned, matched)
	L["core.pages_per_query"] = ratio(pages, queries)
	L["core.outlier_scan_share"] = ratio(outScanned, scanned)
	L["gridfile.scanbatch_ns_per_row"] = ratio(float64(batchTime), batchRows)
	L["gridfile.batches_per_query"] = ratio(batches, aggQueries)
	L["lifecycle.insert_us"], L["lifecycle.delete_us"], L["lifecycle.update_us"] = median(insertUS), median(deleteUS), median(updateUS)
	return inProcessP50{rows: L["shard.exec_rows_ms"], agg: L["shard.exec_agg_ms"]}
}

// serveMicro times the result cache's own work on the engine: building a
// key, answering a hit, and what a miss adds around the computation it
// wraps (version capture, single flight, insertion).
func serveMicro(eng *shard.Sharded, ops []op, L map[string]float64) {
	var reads []*op
	for i := range ops {
		if !ops[i].kind.isWrite() && len(reads) < 1024 {
			reads = append(reads, &ops[i])
		}
	}
	if len(reads) == 0 {
		return
	}
	keys := make([]string, len(reads))
	t0 := time.Now()
	for i, o := range reads {
		keys[i] = serve.Key(o.rect, o.limit, false, "")
	}
	L["serve.key_ns"] = float64(time.Since(t0)) / float64(len(reads))
	qc := serve.NewQueryCache(eng, cacheEntries)
	val := struct{}{}
	compute := func() (any, error) { return val, nil }
	t0 = time.Now()
	for i, o := range reads {
		qc.Do(keys[i], o.rect, compute)
	}
	L["serve.miss_overhead_ns"] = float64(time.Since(t0)) / float64(len(reads))
	t0 = time.Now()
	for i, o := range reads {
		qc.Do(keys[i], o.rect, compute)
	}
	L["serve.hit_ns"] = float64(time.Since(t0)) / float64(len(reads))
}

// kernelMicro times index.SelectRect, the bitmap kernel under every
// ScanBatch, over one 1024-row page of the table per read rectangle.
func kernelMicro(tab *dataset.Table, ops []op, L map[string]float64) {
	rows := min(1024, tab.Len())
	page := tab.Data[:rows*tab.Dims()]
	sel := make([]uint64, index.BatchWords(rows))
	n := 0
	t0 := time.Now()
	for i := range ops {
		if !ops[i].kind.isWrite() {
			index.SelectRect(page, tab.Dims(), rows, ops[i].rect, sel)
			n++
		}
	}
	L["index.select_rect_ns_per_row"] = ratio(float64(time.Since(t0)), float64(n*rows))
}

// mappedVsHeap replays the row queries on the heap engine the snapshot was
// encoded from, on the mapped engine, and on a mapped engine whose page LRU
// holds one page, so that every page touched is decoded.
func mappedVsHeap(path string, mapped, heap *shard.Sharded, ops []op, L map[string]float64) error {
	one, err := coax.OpenFileOptions(path, coax.OpenOptions{PageCacheBytes: 1})
	if err != nil {
		return err
	}
	defer one.Close()
	oneEng, err := one.Serving(0)
	if err != nil {
		return err
	}
	timeAll := func(eng *shard.Sharded) (p50ms float64, total time.Duration, pages int64) {
		var ls []float64
		for i := range ops {
			if ops[i].kind != opRows {
				continue
			}
			var rep shard.Report
			t0 := time.Now()
			eng.Exec(ops[i].rect, index.Spec{}, func([]float64) bool { return true }, &rep)
			dt := time.Since(t0)
			ls = append(ls, float64(dt)/1e6)
			total += dt
			pages += rep.Core.Primary.Pages
		}
		return median(ls), total, pages
	}
	heapP50, heapTotal, _ := timeAll(heap)
	mappedP50, _, _ := timeAll(mapped)
	_, oneTotal, pages := timeAll(oneEng)
	L["mmapsnap.mapped_over_heap_ratio"] = ratio(mappedP50, heapP50)
	L["mmapsnap.decode_us_per_page"] = ratio(float64(oneTotal-heapTotal)/1e3, float64(pages))
	return nil
}

// clusterInProcess serves the table from two loopback cluster.Nodes and
// replays the row queries through a cluster.Router in this process.
func clusterInProcess(s *spec, tab *dataset.Table, ops []op, tr *tracer, L map[string]float64) error {
	var lns []net.Listener
	var addrs []string
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i, a := range addrs {
		engines, err := buildNodeEngines(s, tab, addrs, a)
		if err != nil {
			return err
		}
		node, err := cluster.NewNode(engines, s.Shards)
		if err != nil {
			return err
		}
		defer node.Close()
		go node.Serve(lns[i])
	}
	rt, err := cluster.NewRouter(addrs, s.Shards, 2)
	if err != nil {
		return err
	}
	defer rt.Close()
	var ls []float64
	reqBase := int32(2 * len(ops))
	for i := range ops {
		if ops[i].kind != opRows {
			continue
		}
		var execErr error
		dt := tr.do(reqBase+int32(i+1), 0, "cluster.Router.Exec", func(int32) {
			_, execErr = rt.Exec(ops[i].rect, index.Spec{}, func([]float64) bool { return true })
		})
		if execErr != nil {
			return execErr
		}
		ls = append(ls, float64(dt)/1e6)
	}
	L["cluster.exec_ms"] = median(ls)
	return nil
}

// wireMicro frames the table's first rows as RowChunks through wire.Conn
// into a buffer and back.
func wireMicro(tab *dataset.Table, L map[string]float64) {
	const chunkRows, chunks = 128, 256
	rows := min(chunkRows, tab.Len())
	var buf bytes.Buffer
	c := wire.NewConn(&buf)
	msg := &wire.RowChunk{ID: 1, Shard: 0, Rows: tab.Data[:rows*tab.Dims()]}
	t0 := time.Now()
	for range chunks {
		c.Send(msg)
	}
	L["wire.encode_ns_per_row"] = float64(time.Since(t0)) / float64(chunks*rows)
	L["wire.bytes_per_row"] = float64(buf.Len()) / float64(chunks*rows)
	t0 = time.Now()
	for range chunks {
		c.Recv()
	}
	L["wire.decode_ns_per_row"] = float64(time.Since(t0)) / float64(chunks*rows)
}

// paperShape times the row rectangles on the paper's baselines — an R-tree
// and a full grid over every column, each over the whole table — against
// the serial core.Exec work of the sharded COAX, and compares directory
// sizes. Every speed-up and the overhead ratio should exceed 1.
func paperShape(tab *dataset.Table, eng *shard.Sharded, ops []op, L map[string]float64) error {
	var rects []index.Rect
	for i := range ops {
		if ops[i].kind == opRows && len(rects) < 256 {
			rects = append(rects, ops[i].rect)
		}
	}
	rt, err := rtree.Bulk(tab, rtree.DefaultConfig())
	if err != nil {
		return err
	}
	dims := make([]int, tab.Dims())
	for i := range dims {
		dims[i] = i
	}
	grid, err := gridfile.Build(tab, gridfile.Config{
		GridDims: dims, SortDim: -1, Mode: gridfile.Uniform,
		CellsPerDim: gridfile.DirectoryBoundedCells(tab.Dims(), tab.SizeBytes()),
	})
	if err != nil {
		return err
	}
	sink := func([]float64) bool { return true }
	// The three structures take turns on each rectangle, so that a drift of
	// the machine during the loop falls on all of them alike.
	var coaxT, rtreeT, gridT time.Duration
	for _, r := range rects {
		t0 := time.Now()
		lo, hi := eng.ShardSpan(r)
		for si := lo; si <= hi; si++ {
			eng.WithShard(si, func(c *core.COAX) error { c.Exec(r, index.Spec{}, sink, nil); return nil })
		}
		t1 := time.Now()
		rt.Scan(r, sink, nil)
		t2 := time.Now()
		grid.Scan(r, sink, nil)
		coaxT, rtreeT, gridT = coaxT+t1.Sub(t0), rtreeT+t2.Sub(t1), gridT+time.Since(t2)
	}
	L["paper.coax_vs_rtree_speedup"] = ratio(float64(rtreeT), float64(coaxT))
	L["paper.coax_vs_fullgrid_speedup"] = ratio(float64(gridT), float64(coaxT))
	L["paper.rtree_over_coax_overhead"] = ratio(float64(rt.MemoryOverhead()), float64(eng.MemoryOverhead()))
	return nil
}

// buildNodeEngines builds, in process, the shard engines the node at addr
// hosts — the same call coaxserve node makes.
func buildNodeEngines(s *spec, tab *dataset.Table, addrs []string, addr string) (map[int]*shard.Sharded, error) {
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		return nil, err
	}
	so := shard.DefaultOptions()
	so.NumShards = 2 // coaxserve node -local-shards 2
	return cluster.BuildShards(tab, ring.HostedShards(addr, s.Shards, 2), s.Shards, core.DefaultOptions(), so)
}

func clusterOverheadBytes(s *spec, tab *dataset.Table, addrs []string) (int64, error) {
	var total int64
	for _, a := range addrs {
		engines, err := buildNodeEngines(s, tab, addrs, a)
		if err != nil {
			return 0, err
		}
		for _, e := range engines {
			total += e.MemoryOverhead()
		}
	}
	return total, nil
}
