package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/serve"
	"flashgraph/internal/util"
)

// ConcurrentConfig configures the multi-query serving benchmark — the
// FalkorDB-benchmark-style driver: a pool of client goroutines submits
// a mixed algorithm workload against one serve.Server (one shared SAFS
// instance, page cache, and SSD array) at a target aggregate rate, and
// per-query latency is reported as percentiles per algorithm.
type ConcurrentConfig struct {
	// Clients is the client worker-pool size. Default 8.
	Clients int
	// Requests is the total number of queries across all clients.
	// Default 48.
	Requests int
	// QPS is the target aggregate submission rate; 0 means unthrottled
	// (closed-loop: each client submits as soon as its last query
	// finished).
	QPS float64
	// MaxConcurrent is the scheduler's simultaneous-run bound.
	// Default 4.
	MaxConcurrent int
	// Mix is the algorithm rotation, round-robin across requests.
	// Default bfs, pagerank, wcc.
	Mix []string
}

func (c *ConcurrentConfig) setDefaults() {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Requests == 0 {
		c.Requests = 48
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	// Normalize the mix ("bfs, pagerank" is a natural flag value) and
	// reject unknown algorithms before any dataset is built, not via a
	// client-goroutine panic mid-benchmark.
	known := map[string]bool{}
	for _, n := range serve.Algorithms() {
		known[n] = true
	}
	norm := make([]string, 0, len(c.Mix)) // fresh: never alias the caller's slice
	for _, n := range c.Mix {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !known[n] {
			panic(fmt.Sprintf("bench: unknown algorithm %q in mix (have %v)", n, serve.Algorithms()))
		}
		norm = append(norm, n)
	}
	c.Mix = norm
	if len(c.Mix) == 0 {
		c.Mix = []string{"bfs", "pagerank", "wcc"}
	}
}

// Concurrent runs the concurrent multi-query benchmark on the twitter
// stand-in and prints per-algorithm latency statistics. It returns one
// Result per algorithm (Value = p50 latency in seconds) plus an
// aggregate Result carrying throughput and overlap counters.
func Concurrent(cfg Config, ccfg ConcurrentConfig, w io.Writer) []Result {
	cfg.setDefaults()
	ccfg.setDefaults()
	header(w, "Concurrent queries: mixed workload over one shared SAFS instance")

	d := TwitterSim(cfg)
	srv, cleanup := servingServer(cfg, d, serve.Config{
		MaxConcurrent: ccfg.MaxConcurrent,
		// Size admission AND history for the whole run: this benchmark
		// measures latency under concurrency, not load shedding, and
		// the overlap proof sweeps every query's execution interval —
		// history eviction would silently truncate it.
		MaxQueued:  ccfg.Requests + ccfg.Clients,
		MaxHistory: ccfg.Requests + ccfg.Clients,
	})
	defer cleanup()

	src := bfsSource(d.Img)
	meta := serve.GraphMeta{Name: d.Name, Vertices: d.Img.NumV, Edges: d.Img.NumEdges,
		Directed: d.Img.Directed, Weighted: d.Img.Weighted(), Encoding: d.Img.Encoding.String()}
	// Build each mix entry's typed request once, outside the submission
	// loop, through the spec's own benchmark param template — the
	// registry, not this driver, knows which algorithms need the
	// dataset's canonical source — and the load generator never
	// re-marshals JSON.
	reqs := make(map[string]serve.Request, len(ccfg.Mix))
	for _, name := range ccfg.Mix {
		req := serve.Request{Version: serve.RequestVersion, Algo: name}
		if spec, ok := serve.DefaultSpec(name); ok && spec.BenchParams != nil {
			req.Params = spec.BenchParams(meta, src)
		}
		reqs[name] = req
	}
	// Name-existence was checked in setDefaults; graph compatibility
	// (e.g. sssp needs weights, kcore needs undirected) can only be
	// checked against the built image — do it before generating load so
	// a bad mix fails with one clear message, not a client panic.
	for _, name := range ccfg.Mix {
		if err := srv.Validate(reqs[name]); err != nil {
			panic(fmt.Sprintf("bench: mix entry %q cannot run on %s: %v", name, d.Name, err))
		}
	}
	fmt.Fprintf(w, "dataset %s: %s vertices, %s edges; %d clients, %d requests, %d scheduler slots",
		d.Name, util.HumanCount(int64(d.Img.NumV)), util.HumanCount(d.Img.NumEdges),
		ccfg.Clients, ccfg.Requests, ccfg.MaxConcurrent)
	if ccfg.QPS > 0 {
		fmt.Fprintf(w, ", target %.1f qps", ccfg.QPS)
	}
	fmt.Fprintln(w)

	// Pacer: a ticket per admitted submission. With QPS set, tickets
	// drip at the target rate; unthrottled, the channel is pre-filled so
	// clients run closed-loop.
	tickets := make(chan struct{}, ccfg.Requests)
	if ccfg.QPS > 0 {
		interval := time.Duration(float64(time.Second) / ccfg.QPS)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for i := 0; i < ccfg.Requests; i++ {
				tickets <- struct{}{}
				<-tick.C
			}
		}()
	} else {
		for i := 0; i < ccfg.Requests; i++ {
			tickets <- struct{}{}
		}
	}

	type sample struct {
		algo    string
		latency time.Duration // submit -> done (queue wait + run)
		run     time.Duration // engine execution only
		id      int64
	}
	samples := make([]sample, ccfg.Requests)
	var next int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ccfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= ccfg.Requests {
					return
				}
				<-tickets
				name := ccfg.Mix[i%len(ccfg.Mix)]
				req := reqs[name]
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
					panic(fmt.Sprintf("query %d (%s) failed: %s", id, name, q.Error))
				}
				samples[i] = sample{algo: name, latency: time.Since(t0), run: q.Stats.Elapsed, id: id}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Group latencies per algorithm.
	byAlgo := map[string][]time.Duration{}
	runByAlgo := map[string]time.Duration{}
	for _, s := range samples {
		byAlgo[s.algo] = append(byAlgo[s.algo], s.latency)
		runByAlgo[s.algo] += s.run
	}

	overlapAny, overlapDistinct := maxOverlap(srv.List())
	st := srv.Stats()
	sh, _ := srv.Shared("") // the default graph is the only one
	cs := sh.FS().Cache().Stats()

	fmt.Fprintf(w, "%-10s %6s %10s %10s %10s %10s %10s\n",
		"algo", "n", "p50", "p95", "p99", "max", "mean-run")
	var out []Result
	for _, name := range ccfg.Mix {
		lats := byAlgo[name]
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50, p95, p99 := pct(lats, 0.50), pct(lats, 0.95), pct(lats, 0.99)
		meanRun := runByAlgo[name] / time.Duration(len(lats))
		fmt.Fprintf(w, "%-10s %6d %10v %10v %10v %10v %10v\n",
			name, len(lats),
			p50.Round(time.Microsecond), p95.Round(time.Microsecond),
			p99.Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond),
			meanRun.Round(time.Microsecond))
		out = append(out, Result{
			Exp: "concurrent", Dataset: d.Name, App: name, Value: p50.Seconds(),
			Extra: map[string]float64{
				"p95": p95.Seconds(),
				"p99": p99.Seconds(),
				"max": lats[len(lats)-1].Seconds(),
			},
		})
	}
	qps := float64(ccfg.Requests) / elapsed.Seconds()
	fmt.Fprintf(w, "throughput   %.1f queries/s (%d queries in %v)\n", qps, ccfg.Requests, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "overlap      peak %d queries in flight, peak %d DISTINCT algorithms simultaneously\n",
		overlapAny, overlapDistinct)
	fmt.Fprintf(w, "substrate    %.1f%% cache hit rate across all queries (%d hits, %d misses), %d completed, %d failed\n",
		cs.HitRate()*100, cs.Hits, cs.Misses, st.Completed, st.Failed)
	out = append(out, Result{
		Exp: "concurrent", Dataset: d.Name, App: "aggregate", Value: qps,
		Extra: map[string]float64{
			"peak_in_flight":     float64(overlapAny),
			"peak_distinct_algo": float64(overlapDistinct),
			"cache_hit_rate":     cs.HitRate(),
		},
	})
	return out
}

// pct indexes a sorted latency slice at quantile q.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// maxOverlap sweeps the queries' execution intervals and returns the
// peak number simultaneously running and the peak number of DISTINCT
// algorithms simultaneously running — the direct evidence that multiple
// algorithms execute at once over the shared substrate.
func maxOverlap(queries []serve.Query) (peakAny, peakDistinct int) {
	type event struct {
		at    time.Time
		start bool
		algo  string
	}
	var events []event
	for _, q := range queries {
		if q.Started.IsZero() || q.Finished.IsZero() {
			continue
		}
		events = append(events, event{q.Started, true, q.Req.Algo})
		events = append(events, event{q.Finished, false, q.Req.Algo})
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].at.Equal(events[j].at) {
			return events[i].at.Before(events[j].at)
		}
		// Process finishes before starts at identical timestamps:
		// conservative, never overstates overlap.
		return !events[i].start && events[j].start
	})
	running := map[string]int{}
	total := 0
	for _, e := range events {
		if e.start {
			running[e.algo]++
			total++
		} else {
			running[e.algo]--
			if running[e.algo] == 0 {
				delete(running, e.algo)
			}
			total--
		}
		if total > peakAny {
			peakAny = total
		}
		if len(running) > peakDistinct {
			peakDistinct = len(running)
		}
	}
	return peakAny, peakDistinct
}
