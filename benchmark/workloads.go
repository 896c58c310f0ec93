package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/result"
)

// passEnv is what differs between the kinds of pass: the traced pass
// has a tracer, the warm-up pass a heap sampler, timed passes neither.
type passEnv struct {
	tr   *tracer
	heap *heapSampler
}

// passResult is everything one pass of a workload's query list yields.
type passResult struct {
	wall, cpu time.Duration
	// latencies are the samples behind query_p50_ms / query_p95_ms: one
	// per BFS query where a pass holds many queries (bfs_sem,
	// serve_mix), one per engine iteration where a pass is one or two
	// long runs (pr_sem, spmv_sweep) — the granularity at which a
	// waiting caller, or a deadline, sees progress.
	latencies []time.Duration
	attempted int
	failures  []string

	runs     []core.RunStats // one per engine run that executed
	iterDur  []time.Duration // every iteration of every run, in order
	iterRuns []int           // iterations per run, to split iterDur
	algo     algoTotals      // traced pass only

	resultBuild, resultChecksum time.Duration
	resultBytes                 int64

	serve *serveTotals // serve_mix only
}

func (p *passResult) failf(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the largest live heap seen right after a forced
// collection. It runs in the warm-up pass, whose times are discarded.
type heapSampler struct {
	mu   sync.Mutex
	last time.Time
	max  uint64
}

// sample forces a collection and records HeapAlloc.
func (h *heapSampler) sample() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.max {
		h.max = ms.HeapAlloc
	}
	h.last = time.Now()
}

// sampleSpaced samples unless the previous sample is under heapSampleGap
// old: short BFS iterations would otherwise spend the pass collecting.
func (h *heapSampler) sampleSpaced() {
	if h == nil {
		return
	}
	h.mu.Lock()
	recent := time.Since(h.last) < heapSampleGap
	h.mu.Unlock()
	if !recent {
		h.sample()
	}
}

// iterClock timestamps iteration ends.
type iterClock struct {
	last time.Time
	durs []time.Duration
	heap *heapSampler
}

func (c *iterClock) tick() {
	now := time.Now()
	c.durs = append(c.durs, now.Sub(c.last))
	c.heap.sampleSpaced()
	c.last = time.Now()
}

// The untraced passes run the bare programs with one addition: the
// iteration-end hook the engines already offer, used to take a
// timestamp. Embedding the concrete program keeps every method and
// optional interface the program's own.
type vertexPageRank struct {
	*algo.PageRank
	clk *iterClock
}

func (p vertexPageRank) OnIterationEnd(*core.Engine) { p.clk.tick() }

type vertexBFS struct {
	*algo.BFS
	clk *iterClock
}

func (b vertexBFS) OnIterationEnd(*core.Engine) { b.clk.tick() }

type sweepPageRank struct {
	*algo.PageRank
	clk *iterClock
}

func (p sweepPageRank) EndIteration(eng core.ExecutionEngine, iter int) bool {
	done := p.PageRank.EndIteration(eng, iter)
	p.clk.tick()
	return done
}

type sweepWCC struct {
	*algo.WCC
	clk *iterClock
}

func (w sweepWCC) EndIteration(eng core.ExecutionEngine, iter int) bool {
	done := w.WCC.EndIteration(eng, iter)
	w.clk.tick()
	return done
}

// newProgram builds the bare program of a query.
func newProgram(q query) core.Program {
	switch q.Algo {
	case "pagerank":
		pr := algo.NewPageRank()
		pr.Iters = q.Iters
		return pr
	case "bfs":
		return algo.NewBFS(q.Src)
	case "wcc":
		return algo.NewWCC()
	}
	panic("benchmark: unknown algorithm " + q.Algo)
}

// clocked returns prog with the iteration timestamp hook for kind.
func clocked(prog core.Program, kind core.EngineKind, clk *iterClock) core.Program {
	switch p := prog.(type) {
	case *algo.PageRank:
		if kind == core.EngineSpMV {
			return sweepPageRank{p, clk}
		}
		return vertexPageRank{p, clk}
	case *algo.BFS:
		return vertexBFS{p, clk}
	case *algo.WCC:
		if kind == core.EngineSpMV {
			return sweepWCC{p, clk}
		}
	}
	panic(fmt.Sprintf("benchmark: no clocked form of %T on the %s engine", prog, kind))
}

// runBatchPass executes the query list once, back to back, each query
// on a fresh per-run engine over shared, and checks every answer.
func runBatchPass(shared *core.Shared, spec workloadSpec, qs []query, env passEnv) passResult {
	var res passResult
	kind, perQuery := spec.engine, spec.latencyPerQuery
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	root := env.tr.begin(0, "harness", "pass", 0)

	for i, q := range qs {
		res.attempted++
		qid := i + 1
		qspan := env.tr.begin(qid, "harness", "query", root)
		qStart := time.Now()
		eng, err := shared.NewEngine(kind)
		if err != nil {
			res.failf("%s: %v", q, err)
			env.tr.end(qspan, nil)
			continue
		}
		bare := newProgram(q)
		clk := &iterClock{heap: env.heap}
		rspan := env.tr.begin(qid, "core", "run", qspan)
		var prog core.Program
		var totals func() algoTotals
		if env.tr == nil {
			prog = clocked(bare, kind, clk)
		} else {
			prog, totals = traced(bare, kind, clk, env.tr, qid, rspan)
		}
		clk.last = time.Now()
		st, err := eng.Run(prog)
		env.tr.end(rspan, map[string]int64{
			"iterations": int64(st.Iterations), "edge_requests": st.EdgeRequests,
			"messages": st.Messages, "device_reads": st.DeviceReads,
		})
		eng.Close()
		if err != nil {
			res.failf("%s: run: %v", q, err)
			env.tr.end(qspan, nil)
			continue
		}
		res.runs = append(res.runs, st)
		res.iterDur = append(res.iterDur, clk.durs...)
		res.iterRuns = append(res.iterRuns, len(clk.durs))
		if totals != nil {
			res.algo.add(totals())
		}

		bspan := env.tr.begin(qid, "result", "build", qspan)
		b0 := time.Now()
		rs := result.From(bare, q.Algo)
		res.resultBuild += time.Since(b0)
		res.resultBytes += rs.MemoryBytes()
		env.tr.end(bspan, map[string]int64{"bytes": rs.MemoryBytes()})
		if perQuery {
			res.latencies = append(res.latencies, time.Since(qStart))
		}

		cspan := env.tr.begin(qid, "result", "checksum", qspan)
		c0 := time.Now()
		sum := rs.Checksum()
		res.resultChecksum += time.Since(c0)
		env.tr.end(cspan, nil)
		if sum != q.want {
			res.failf("%s: checksum %s, oracle %s", q, sum, q.want)
		}
		env.tr.end(qspan, nil)
		env.heap.sample()
	}

	env.tr.end(root, nil)
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	if !perQuery {
		res.latencies = res.iterDur
	}
	return res
}

// traced wraps bare for the traced pass: every callback counted and
// timed, an "iteration" span per iteration end with the callbacks'
// summed time as its children.
func traced(bare core.Program, kind core.EngineKind, clk *iterClock, tr *tracer, qid, parent int) (core.Program, func() algoTotals) {
	var totals func() algoTotals
	var prev algoTotals
	onIter := func(iter int) {
		end := tr.now()
		start := end - int64(time.Since(clk.last))
		cur := totals()
		d := cur
		d.sub(prev)
		prev = cur
		id := tr.record(qid, "core", "iteration", parent, start, end, map[string]int64{"iter": int64(iter)})
		for _, c := range []struct {
			name  string
			t     time.Duration
			calls int64
		}{
			{"run", d.run, d.runCalls},
			{"on_vertex", d.vertex, d.vertexCalls},
			{"on_message", d.message, d.messageCalls},
			{"apply_row", d.applyRow, d.applyRowCalls},
		} {
			if c.calls > 0 {
				tr.aggregate(qid, "algo", c.name, id, c.t, map[string]int64{"calls": c.calls})
			}
		}
		clk.tick()
	}
	if kind == core.EngineSpMV {
		t := &tracedSpMV{inner: bare.(core.SpMVProgram), onIter: onIter}
		totals = t.totals
		return t, totals
	}
	prog, t := wrapAlgorithm(bare.(core.Algorithm), onIter)
	totals = t.totals
	return prog, totals
}
