package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/qos"
	"flashgraph/internal/serve"
	"flashgraph/internal/util"
)

// ServingConfig parameterizes the serving-QoS experiment — the
// acceptance gauge for the QoS tier, grown out of the -exp concurrent
// driver. It runs four phases on the twitter stand-in:
//
//	fifo:  interactive probes under batch load, seed-era FIFO scheduler
//	qos:   the same workload with priority classes on
//	cache: repeated identical queries against the result cache
//	quota: a greedy tenant vs a steady tenant under per-tenant buckets
//
// and panics unless the QoS claims hold: interactive p99 improves at
// least AcceptSpeedup-fold over FIFO, cache hits return bit-identical
// checksums, and quota denials never touch the steady tenant.
type ServingConfig struct {
	// Interactive is the number of sequential interactive probes (bfs,
	// rotating sources) per scheduling phase. Default 8.
	Interactive int
	// Batch is the background batch-query count (pagerank, BatchIters
	// sweeps) submitted before the probes in each scheduling phase.
	// Default 10.
	Batch int
	// BatchIters is the pagerank sweep count of each batch query
	// (kept >= 20 so class inference files them as batch). Default 24.
	BatchIters int
	// Slots is the scheduler's MaxConcurrent. Default 4.
	Slots int
	// CacheRepeats is how many times the cache phase re-submits the
	// identical query. Default 6.
	CacheRepeats int
	// QuotaBurst is the per-tenant burst capacity in the quota phase;
	// the greedy tenant submits 3x this in one burst. Default 4.
	QuotaBurst float64
	// AcceptSpeedup is the minimum fifo-p99 / qos-p99 ratio the run
	// must demonstrate. Default 5.
	AcceptSpeedup float64
	// JSONPath receives the machine-readable report (fg-bench defaults
	// its flag to "BENCH_serving.json").
	JSONPath string
}

func (c *ServingConfig) setDefaults() {
	if c.Interactive == 0 {
		c.Interactive = 8
	}
	if c.Batch == 0 {
		c.Batch = 10
	}
	if c.BatchIters == 0 {
		c.BatchIters = 24
	}
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.CacheRepeats == 0 {
		c.CacheRepeats = 6
	}
	if c.QuotaBurst == 0 {
		c.QuotaBurst = 4
	}
	if c.AcceptSpeedup == 0 {
		c.AcceptSpeedup = 5
	}
}

// ServingPhase is one scheduling phase's measurement: interactive
// probe latency percentiles under batch load, per scheduler mode.
type ServingPhase struct {
	Mode              string  `json:"mode"` // "fifo" | "qos"
	Interactive       int     `json:"interactive"`
	Batch             int     `json:"batch"`
	InteractiveP50Sec float64 `json:"interactive_p50_sec"`
	InteractiveP95Sec float64 `json:"interactive_p95_sec"`
	InteractiveP99Sec float64 `json:"interactive_p99_sec"`
	InteractiveMaxSec float64 `json:"interactive_max_sec"`
	BatchMeanSec      float64 `json:"batch_mean_sec"`
	WallSec           float64 `json:"wall_sec"`
}

// ServingCache is the cache phase's evidence: repeated identical
// submissions hit, and every hit's checksum matches the computed run's.
type ServingCache struct {
	Repeats            int     `json:"repeats"`
	Hits               int     `json:"hits"`
	HitRate            float64 `json:"hit_rate"`
	Checksum           string  `json:"checksum"`
	ChecksumsIdentical bool    `json:"checksums_identical"`
	Coalesced          int     `json:"coalesced"`
	HitP99Sec          float64 `json:"hit_p99_sec"`
	ComputeSec         float64 `json:"compute_sec"` // the one real run
}

// ServingQuota is the quota phase's evidence: the greedy tenant is
// denied (429 over HTTP) while the steady tenant is untouched.
type ServingQuota struct {
	GreedySubmitted int  `json:"greedy_submitted"`
	GreedyDenied    int  `json:"greedy_denied"`
	SteadySubmitted int  `json:"steady_submitted"`
	SteadyDenied    int  `json:"steady_denied"`
	SteadyAllDone   bool `json:"steady_all_done"`
}

// ServingReport is the BENCH_serving.json artifact.
type ServingReport struct {
	Dataset    string         `json:"dataset"`
	Vertices   int            `json:"vertices"`
	Edges      int64          `json:"edges"`
	Slots      int            `json:"slots"`
	BatchIters int            `json:"batch_iters"`
	Phases     []ServingPhase `json:"phases"`
	SpeedupP99 float64        `json:"speedup_p99"` // fifo p99 / qos p99
	Cache      ServingCache   `json:"cache"`
	Quota      ServingQuota   `json:"quota"`
}

// Serving runs the serving-QoS benchmark and writes BENCH_serving.json.
func Serving(cfg Config, scfg ServingConfig, w io.Writer) []Result {
	cfg.setDefaults()
	scfg.setDefaults()
	header(w, "Serving QoS: priority classes, result cache, per-tenant quotas")

	d := TwitterSim(cfg)
	fmt.Fprintf(w, "dataset %s: %s vertices, %s edges; %d scheduler slots, %d batch queries x %d sweeps, %d interactive probes\n",
		d.Name, util.HumanCount(int64(d.Img.NumV)), util.HumanCount(d.Img.NumEdges),
		scfg.Slots, scfg.Batch, scfg.BatchIters, scfg.Interactive)

	report := ServingReport{
		Dataset:    d.Name,
		Vertices:   d.Img.NumV,
		Edges:      d.Img.NumEdges,
		Slots:      scfg.Slots,
		BatchIters: scfg.BatchIters,
	}

	// Phases A/B: the identical workload — Batch long pagerank sweeps
	// submitted first, then sequential interactive BFS probes — on the
	// seed FIFO and on the QoS scheduler. Each phase gets a fresh
	// substrate so page-cache state never favors one mode.
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %12s\n",
		"mode", "int-p50", "int-p95", "int-p99", "int-max", "batch-mean")
	for _, mode := range []string{"fifo", "qos"} {
		ph := servingPhase(cfg, scfg, d, mode)
		report.Phases = append(report.Phases, ph)
		fmt.Fprintf(w, "%-6s %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			ph.Mode, ph.InteractiveP50Sec, ph.InteractiveP95Sec,
			ph.InteractiveP99Sec, ph.InteractiveMaxSec, ph.BatchMeanSec)
	}
	fifo, qosPh := report.Phases[0], report.Phases[1]
	report.SpeedupP99 = fifo.InteractiveP99Sec / qosPh.InteractiveP99Sec
	fmt.Fprintf(w, "interactive p99: %.4fs fifo -> %.4fs qos (%.1fx better under identical batch load)\n",
		fifo.InteractiveP99Sec, qosPh.InteractiveP99Sec, report.SpeedupP99)

	report.Cache = servingCachePhase(cfg, scfg, d, w)
	report.Quota = servingQuotaPhase(cfg, scfg, d, w)

	// Acceptance: this experiment gauges the QoS tier, it doesn't just
	// tabulate it.
	if report.SpeedupP99 < scfg.AcceptSpeedup {
		panic(fmt.Sprintf("bench: qos interactive p99 only %.1fx better than fifo (%.4fs vs %.4fs), want >= %.0fx",
			report.SpeedupP99, qosPh.InteractiveP99Sec, fifo.InteractiveP99Sec, scfg.AcceptSpeedup))
	}
	if !report.Cache.ChecksumsIdentical || report.Cache.Hits != scfg.CacheRepeats-1 {
		panic(fmt.Sprintf("bench: result cache broke identity: %d/%d hits, identical=%t",
			report.Cache.Hits, scfg.CacheRepeats-1, report.Cache.ChecksumsIdentical))
	}
	if report.Quota.GreedyDenied == 0 || report.Quota.SteadyDenied != 0 || !report.Quota.SteadyAllDone {
		panic(fmt.Sprintf("bench: quotas failed isolation: greedy denied %d (want >0), steady denied %d (want 0), steady done %t",
			report.Quota.GreedyDenied, report.Quota.SteadyDenied, report.Quota.SteadyAllDone))
	}

	if scfg.JSONPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(scfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "wrote %s\n", scfg.JSONPath)
	}
	return []Result{
		{Exp: "serving", Dataset: d.Name, App: "interactive", Variant: "fifo", Value: fifo.InteractiveP99Sec},
		{Exp: "serving", Dataset: d.Name, App: "interactive", Variant: "qos", Value: qosPh.InteractiveP99Sec,
			Extra: map[string]float64{"speedup_p99": report.SpeedupP99}},
		{Exp: "serving", Dataset: d.Name, App: "cache", Value: report.Cache.HitRate,
			Extra: map[string]float64{"hits": float64(report.Cache.Hits)}},
		{Exp: "serving", Dataset: d.Name, App: "quota", Value: float64(report.Quota.GreedyDenied),
			Extra: map[string]float64{"steady_denied": float64(report.Quota.SteadyDenied)}},
	}
}

// servingServer stands up a fresh substrate (array, SAFS, shared
// engine state) over d and a server on it. The caller closes the
// returned cleanup.
func servingServer(cfg Config, d *Dataset, scfg serve.Config) (*serve.Server, func()) {
	fs, arr := newFS(cfg, cacheBytesFor(d, d.CacheFrac1G, 0), 0)
	shared, err := core.NewShared(d.Img, core.Config{Threads: cfg.Threads, RangeShift: 6, FS: fs})
	if err != nil {
		panic(err)
	}
	srv := serve.New(shared, scfg)
	return srv, func() {
		srv.Close()
		arr.Close()
	}
}

// server sizes one phase's server: admission and history hold the
// whole phase, because this gauge measures scheduling and caching, not
// load shedding. resultBytes -1 keeps every submission a real run.
func (c ServingConfig) server(q qos.Config, resultBytes int64) serve.Config {
	n := 4 * (c.Batch + c.Interactive + c.CacheRepeats + 32)
	return serve.Config{MaxConcurrent: c.Slots, MaxQueued: n, MaxHistory: n, ResultBytes: resultBytes, QoS: q}
}

// probeSources returns n BFS sources spread over the vertex space,
// anchored at the max-degree vertex — distinct per probe so neither
// the cache nor single-flight collapses them in QoS mode.
func probeSources(img *graph.Image, n int) []graph.VertexID {
	out := make([]graph.VertexID, n)
	base := bfsSource(img)
	stride := graph.VertexID(img.NumV/n | 1)
	for i := range out {
		out[i] = (base + graph.VertexID(i)*stride) % graph.VertexID(img.NumV)
	}
	return out
}

// servingPhase runs one scheduling phase: Batch pagerank sweeps
// submitted up front (distinct iteration counts, so QoS-mode
// single-flight cannot collapse them), then Interactive sequential BFS
// probes whose submit-to-done latency is the figure of merit.
func servingPhase(cfg Config, scfg ServingConfig, d *Dataset, mode string) ServingPhase {
	qcfg := qos.Config{}
	if mode == "qos" {
		qcfg = qos.Config{Enabled: true, BatchSlots: scfg.Slots / 2}
	}
	// Isolate scheduling: no result is retained, so none is served twice.
	srv, cleanup := servingServer(cfg, d, scfg.server(qcfg, -1))
	defer cleanup()

	start := time.Now()
	batchIDs := make([]int64, scfg.Batch)
	for i := range batchIDs {
		// Vary iters within a narrow band: run times stay comparable,
		// cache keys stay distinct, and every count stays >= 20 so class
		// inference files them as batch.
		id, err := srv.Submit(serve.Request{
			Algo:   "pagerank",
			Params: serve.MarshalParams(serve.PageRankParams{Iters: scfg.BatchIters + i%3}),
		})
		if err != nil {
			panic(err)
		}
		batchIDs[i] = id
	}

	lats := make([]time.Duration, 0, scfg.Interactive)
	for _, src := range probeSources(d.Img, scfg.Interactive) {
		t0 := time.Now()
		id, err := srv.Submit(serve.Request{
			Algo:   "bfs",
			Params: serve.MarshalParams(serve.SrcParams{Src: src}),
		})
		if err != nil {
			panic(err)
		}
		q, err := srv.Wait(id)
		if err != nil {
			panic(err)
		}
		if q.State != serve.StateDone {
			panic(fmt.Sprintf("bench: probe bfs src=%d failed: %s", src, q.Error))
		}
		lats = append(lats, time.Since(t0))
	}

	var batchTotal time.Duration
	for _, id := range batchIDs {
		q, err := srv.Wait(id)
		if err != nil {
			panic(err)
		}
		if q.State != serve.StateDone {
			panic(fmt.Sprintf("bench: batch pagerank failed: %s", q.Error))
		}
		batchTotal += q.Finished.Sub(q.Submitted)
	}

	sortDurations(lats)
	return ServingPhase{
		Mode:              mode,
		Interactive:       scfg.Interactive,
		Batch:             scfg.Batch,
		InteractiveP50Sec: pct(lats, 0.50).Seconds(),
		InteractiveP95Sec: pct(lats, 0.95).Seconds(),
		InteractiveP99Sec: pct(lats, 0.99).Seconds(),
		InteractiveMaxSec: lats[len(lats)-1].Seconds(),
		BatchMeanSec:      (batchTotal / time.Duration(scfg.Batch)).Seconds(),
		WallSec:           time.Since(start).Seconds(),
	}
}

// servingCachePhase proves the result cache's identity claim: the
// identical request re-submitted CacheRepeats times computes once,
// hits thereafter, and every answer carries the same checksum. A
// concurrent burst of identical submissions exercises single-flight
// coalescing on the side.
func servingCachePhase(cfg Config, scfg ServingConfig, d *Dataset, w io.Writer) ServingCache {
	srv, cleanup := servingServer(cfg, d, scfg.server(qos.Config{Enabled: true}, 0))
	defer cleanup()

	req := serve.Request{
		Algo:   "pagerank",
		Params: serve.MarshalParams(serve.PageRankParams{Iters: 10}),
	}
	var out ServingCache
	out.Repeats = scfg.CacheRepeats
	out.ChecksumsIdentical = true
	hitLats := make([]time.Duration, 0, scfg.CacheRepeats-1)
	for i := 0; i < scfg.CacheRepeats; i++ {
		t0 := time.Now()
		id, err := srv.Submit(req)
		if err != nil {
			panic(err)
		}
		q, err := srv.Wait(id)
		if err != nil {
			panic(err)
		}
		if q.State != serve.StateDone {
			panic(fmt.Sprintf("bench: cache-phase pagerank failed: %s", q.Error))
		}
		sum, _ := q.Result["checksum"].(string)
		if i == 0 {
			out.Checksum = sum
			out.ComputeSec = time.Since(t0).Seconds()
			continue
		}
		if sum != out.Checksum {
			out.ChecksumsIdentical = false
		}
		if q.Cache == serve.CacheHit {
			out.Hits++
			hitLats = append(hitLats, time.Since(t0))
		}
	}
	out.HitRate = float64(out.Hits) / float64(scfg.CacheRepeats-1)
	sortDurations(hitLats)
	out.HitP99Sec = pct(hitLats, 0.99).Seconds()

	// Coalescing burst: identical long submissions land while the first
	// is still in flight and attach to it (the deterministic version of
	// this proof, gated on a blocking fixture, lives in the serve tests).
	burst := serve.Request{
		Algo:   "pagerank",
		Params: serve.MarshalParams(serve.PageRankParams{Iters: scfg.BatchIters}),
	}
	ids := make([]int64, 4)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := srv.Submit(burst)
			if err != nil {
				panic(err)
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		q, err := srv.Wait(id)
		if err != nil {
			panic(err)
		}
		if q.Cache == serve.CacheCoalesced {
			out.Coalesced++
		}
	}

	st := srv.Stats()
	fmt.Fprintf(w, "cache: %d/%d hits on identical re-submits (p99 %.2gs vs %.2gs compute), %d of %d burst submits coalesced, checksums identical=%t\n",
		out.Hits, scfg.CacheRepeats-1, out.HitP99Sec, out.ComputeSec, out.Coalesced, len(ids), out.ChecksumsIdentical)
	if st.ResultCache != nil {
		fmt.Fprintf(w, "cache: %d entries / %s retained, %d hits %d misses server-wide\n",
			st.ResultCache.Entries, util.HumanBytes(st.ResultCache.Bytes), st.ResultCache.Hits, st.ResultCache.Misses)
	}
	return out
}

// servingQuotaPhase proves tenant isolation: a greedy tenant bursting
// 3x its bucket gets denials (429 over HTTP) while a steady tenant
// interleaved with it is admitted every time and completes every
// query.
func servingQuotaPhase(cfg Config, scfg ServingConfig, d *Dataset, w io.Writer) ServingQuota {
	// Quotas meter admissions; -1 keeps every submission real.
	srv, cleanup := servingServer(cfg, d, scfg.server(qos.Config{
		Enabled:    true,
		QuotaRate:  1, // 1 query/sec sustained: a burst must overdraw
		QuotaBurst: scfg.QuotaBurst,
	}, -1))
	defer cleanup()

	srcs := probeSources(d.Img, 4*int(scfg.QuotaBurst))
	var out ServingQuota
	var steadyIDs []int64
	next := 0
	// Interleave: each round the greedy tenant fires 3 submissions to
	// the steady tenant's 1 — greedy overdraws its bucket, steady never
	// exceeds its own.
	rounds := int(scfg.QuotaBurst)
	for r := 0; r < rounds; r++ {
		for g := 0; g < 3; g++ {
			req := serve.Request{
				Algo:   "bfs",
				Params: serve.MarshalParams(serve.SrcParams{Src: srcs[next]}),
				Tenant: "greedy",
			}
			next++
			out.GreedySubmitted++
			if _, err := srv.Submit(req); err != nil {
				if !errors.Is(err, qos.ErrQuotaExceeded) {
					panic(err)
				}
				out.GreedyDenied++
			}
		}
		req := serve.Request{
			Algo:   "bfs",
			Params: serve.MarshalParams(serve.SrcParams{Src: srcs[next]}),
			Tenant: "steady",
		}
		next++
		out.SteadySubmitted++
		id, err := srv.Submit(req)
		if err != nil {
			if !errors.Is(err, qos.ErrQuotaExceeded) {
				panic(err)
			}
			out.SteadyDenied++
			continue
		}
		steadyIDs = append(steadyIDs, id)
	}
	out.SteadyAllDone = true
	for _, id := range steadyIDs {
		q, err := srv.Wait(id)
		if err != nil || q.State != serve.StateDone {
			out.SteadyAllDone = false
		}
	}
	fmt.Fprintf(w, "quota: greedy %d/%d denied (429), steady %d/%d denied, steady all completed=%t\n",
		out.GreedyDenied, out.GreedySubmitted, out.SteadyDenied, out.SteadySubmitted, out.SteadyAllDone)
	return out
}

// sortDurations sorts in place (ascending) for pct.
func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
