package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/qos"
	"flashgraph/internal/serve"
)

// serveTotals is the serve_mix part of a pass: per-query client-side
// timings and what the server reported about itself.
type serveTotals struct {
	submit, fetch []time.Duration // client side of POST /queries and GET .../result/topk
	overhead      []time.Duration // bfs client latency − queue wait − engine run
	run           []time.Duration // server-reported Stats.Elapsed of queries that executed
	queueWait     []time.Duration // every query's QueueWaitMS
	prLatency     []time.Duration // pagerank client latencies
	stats         serve.Stats
}

// serveTwin is one program the server built from a traced twin spec.
type serveTwin struct {
	alg *tracedAlg
	clk iterClock
}

// tracedSpecs registers traced twins of the built-in bfs and pagerank on
// srv ("bfs_traced", "pagerank_traced"): same constructor, wrapped in
// the counting wrapper. The server builds programs itself, so this is
// the only way to see their callbacks from outside.
func tracedSpecs(srv *serve.Server, heap *heapSampler, collect func(*serveTwin)) error {
	for _, name := range []string{"bfs", "pagerank"} {
		spec, ok := serve.DefaultSpec(name)
		if !ok {
			return fmt.Errorf("serve: no built-in %q", name)
		}
		build := spec.New
		spec.Name = name + "_traced"
		spec.Caps.SupportsSpMV = false // the twin is a vertex program only
		spec.New = func(params json.RawMessage, g serve.GraphMeta) (core.Program, error) {
			prog, err := build(params, g)
			if err != nil {
				return nil, err
			}
			wrapped, t := wrapAlgorithm(prog.(core.Algorithm), nil)
			twin := &serveTwin{alg: t}
			t.onIter = func(iter int) {
				if iter == 0 {
					twin.clk.last = t.started
				}
				twin.clk.tick()
			}
			twin.clk.heap = heap
			collect(twin)
			return wrapped, nil
		}
		if err := srv.Register(spec); err != nil {
			return err
		}
	}
	return nil
}

// runServePass drives one pass of serve_mix: a fresh server over the
// warm substrate, loadClients closed-loop HTTP clients taking the next
// query from the shared list as soon as their previous one completed.
func runServePass(shared *core.Shared, spec workloadSpec, qs []query, env passEnv) passResult {
	res := passResult{serve: &serveTotals{}}
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	root := env.tr.begin(0, "harness", "pass", 0)

	srv := serve.New(shared, serve.Config{
		MaxConcurrent: serveSlots,
		MaxQueued:     len(qs),
		MaxHistory:    2 * len(qs),
		QoS:           qos.Config{Enabled: true},
	})
	var mu sync.Mutex // guards res and twins from the client goroutines
	var twins []*serveTwin
	// The twins are also how the warm-up pass takes heap samples at
	// iteration ends inside the server's runs, as the batch passes do.
	suffix := ""
	if env.tr != nil || env.heap != nil {
		suffix = "_traced"
		if err := tracedSpecs(srv, env.heap, func(t *serveTwin) {
			mu.Lock()
			twins = append(twins, t)
			mu.Unlock()
		}); err != nil {
			res.failf("register traced specs: %v", err)
		}
	}
	ts := httptest.NewServer(serve.Handler(srv))
	client := ts.Client()

	// BFS latencies by list position: two clients complete out of order,
	// and the passes are compared query by query.
	lat := make([]time.Duration, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				o := serveQuery(client, ts.URL, qs[i], spec.engine, suffix, env.tr, i+1, root)
				mu.Lock()
				res.attempted++
				if o.err != nil {
					res.failf("%s: %v", qs[i], o.err)
				} else {
					st := res.serve
					st.submit = append(st.submit, o.submit)
					st.fetch = append(st.fetch, o.fetch)
					st.queueWait = append(st.queueWait, o.queueWait)
					if o.executed {
						st.run = append(st.run, o.stats.Elapsed)
						res.runs = append(res.runs, o.stats)
					}
					if qs[i].Algo == "bfs" {
						lat[i] = o.latency
						if !o.coalesced { // a follower's wait is its leader's run, not overhead
							st.overhead = append(st.overhead, o.latency-o.queueWait-o.ranFor)
						}
					} else {
						st.prLatency = append(st.prLatency, o.latency)
					}
				}
				mu.Unlock()
				// Every completion, not spaced: the peak (most results
				// retained, a pagerank in flight beside it) is brief.
				env.heap.sample()
			}
		}()
	}
	wg.Wait()
	for i, q := range qs {
		if q.Algo == "bfs" && lat[i] > 0 {
			res.latencies = append(res.latencies, lat[i])
		}
	}

	res.serve.stats = srv.Stats()
	ts.Close()
	srv.Close()
	for _, t := range twins {
		if t.alg.w == nil {
			continue // built at submit time, answered from the cache or a leader
		}
		res.algo.add(t.alg.totals())
		res.iterDur = append(res.iterDur, t.clk.durs...)
		res.iterRuns = append(res.iterRuns, len(t.clk.durs))
		res.resultBuild += t.alg.resultTime
		res.resultBytes += t.alg.resultBytes
	}
	env.tr.end(root, nil)
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	return res
}

// serveOutcome is one query as its client saw it.
type serveOutcome struct {
	err                    error
	latency, submit, fetch time.Duration
	queueWait, ranFor      time.Duration
	executed, coalesced    bool // ran on an engine itself / attached to an in-flight twin
	stats                  core.RunStats
}

// serveQuery submits q, waits for it, checks its checksum against the
// oracle, and fetches the top 10 of its result.
func serveQuery(client *http.Client, base string, q query, engine core.EngineKind, suffix string, tr *tracer, qid, parent int) (o serveOutcome) {
	req := serve.Request{Version: serve.RequestVersion, Algo: q.Algo + suffix}
	switch q.Algo {
	case "bfs":
		req.Params = serve.MarshalParams(serve.SrcParams{Src: q.Src})
	case "pagerank":
		req.Params = serve.MarshalParams(serve.PageRankParams{Iters: q.Iters})
		req.Engine = string(engine)
	}
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	qspan := tr.begin(qid, "harness", "query", parent)
	defer func() { tr.end(qspan, nil) }()
	start := time.Now()

	var sub serve.Query
	sp := tr.begin(qid, "serve", "submit", qspan)
	code, err := doJSON(client, http.MethodPost, base+"/queries", body, &sub)
	o.submit = time.Since(start)
	tr.end(sp, nil)
	if err != nil || code != http.StatusAccepted {
		o.err = fmt.Errorf("submit: status %d: %v", code, err)
		return o
	}

	var done serve.Query
	sp = tr.begin(qid, "serve", "wait", qspan)
	code, err = doJSON(client, http.MethodGet, fmt.Sprintf("%s/queries/%d?wait=1", base, sub.ID), nil, &done)
	tr.end(sp, map[string]int64{"queue_wait_ns": int64(done.QueueWaitMS * 1e6), "run_ns": int64(done.Stats.Elapsed)})
	if err != nil || code != http.StatusOK || done.State != serve.StateDone {
		o.err = fmt.Errorf("wait: status %d state %q error %q: %v", code, done.State, done.Error, err)
		return o
	}

	f0 := time.Now()
	sp = tr.begin(qid, "serve", "fetch_topk", qspan)
	var top struct {
		Entries []json.RawMessage `json:"entries"`
	}
	code, err = doJSON(client, http.MethodGet, fmt.Sprintf("%s/queries/%d/result/topk?k=10", base, sub.ID), nil, &top)
	o.fetch = time.Since(f0)
	tr.end(sp, nil)
	o.latency = time.Since(start)
	if err != nil || code != http.StatusOK || len(top.Entries) == 0 {
		o.err = fmt.Errorf("topk: status %d, %d entries: %v", code, len(top.Entries), err)
		return o
	}

	if sum, _ := done.Result["checksum"].(string); sum != q.want {
		o.err = fmt.Errorf("checksum %q, oracle %s", sum, q.want)
		return o
	}
	o.queueWait = time.Duration(done.QueueWaitMS * float64(time.Millisecond))
	o.executed, o.coalesced = done.Cache == "", done.Cache == serve.CacheCoalesced
	o.stats = done.Stats
	if o.executed {
		o.ranFor = done.Stats.Elapsed
	}
	return o
}

// doJSON performs one request and decodes a JSON response into out.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(blob))
	}
	return resp.StatusCode, json.Unmarshal(blob, out)
}

// startStopServer stands a server up over shared behind an HTTP
// listener and takes it down again: the server-start share of setup_s.
func startStopServer(shared *core.Shared) {
	srv := serve.New(shared, serve.Config{MaxConcurrent: serveSlots, QoS: qos.Config{Enabled: true}})
	ts := httptest.NewServer(serve.Handler(srv))
	ts.Close()
	srv.Close()
}
