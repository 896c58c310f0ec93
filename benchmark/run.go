package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
)

// runMode selects what one invocation measures.
type runMode struct {
	timed  bool // timed passes → end-to-end metrics
	traced bool // one traced pass, the in-memory comparison, the probes → per-layer metrics
	// passes fixes the number of timed passes; 0 means "until seconds
	// have elapsed, but at least minTimedPasses".
	passes  int
	seconds float64
	setups  int       // set-ups to time (the last is kept); 0 means 1
	log     io.Writer // progress lines; nil = quiet
}

// runResult is one workload run: its inputs, every pass, and the
// metrics derived from them.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    int     `json:"scale"`
	Vertices int     `json:"vertices"`
	Edges    int64   `json:"edges"`
	SSDBytes int64   `json:"ssd_bytes"`
	Queries  []query `json:"queries"`

	Passes    int      `json:"timed_passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	SSDErrors int64    `json:"ssd_errors"`

	EndToEnd map[string]*measurement `json:"end_to_end,omitempty"`
	PerLayer map[string]*measurement `json:"per_layer,omitempty"`
	Identity string                  `json:"identity,omitempty"` // the vertex-engine time identity, printed with its terms
	Trace    string                  `json:"trace_file,omitempty"`
}

// measurement is one metric's value, with the per-pass samples behind a
// median where there are any.
type measurement struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

func (m runMode) logf(format string, args ...any) {
	if m.log != nil {
		fmt.Fprintf(m.log, format+"\n", args...)
	}
}

// runWorkload is the whole pipeline for one workload and seed: machine
// check, set-up, oracle, warm-up pass, timed passes with tracing off,
// then (traced mode) one traced pass, the in-memory comparison and the
// isolation probes.
func runWorkload(spec workloadSpec, sz sizing, seed uint64, mode runMode, workDir, outDir string) (*runResult, error) {
	dir, err := os.MkdirTemp(workDir, "fg-"+spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if mode.traced {
		tr = newTracer(spec.name)
	}
	var machBefore machine
	if mode.traced { // machine.* are per-layer rows; a timed-only run does not pay for them
		machBefore = machineCheck(sz.probeIters)
	}

	// Set-up, with the oracle's copy of the edge stream teed off it.
	scale := spec.scale(sz)
	edges := make([]graph.Edge, 0, edgesPerVertex<<scale)
	var sub *substrate
	var setups []float64
	nSetups := max(mode.setups, 1)
	for i := 0; i < nSetups; i++ {
		if sub != nil {
			sub.close()
			if err := sub.removeFiles(); err != nil {
				return nil, err
			}
		}
		edges = edges[:0]
		var spanTr *tracer
		if i == nSetups-1 {
			spanTr = tr // only the set-up that is kept goes into the trace
		}
		sub, err = buildSubstrate(spec, sz, seed, dir, func(e graph.Edge) { edges = append(edges, e) }, spanTr)
		if err != nil {
			return nil, err
		}
		if spec.serve {
			// Server start is part of what a serve_mix user waits for.
			t0 := time.Now()
			startStopServer(sub.shared)
			sub.setup += time.Since(t0)
		}
		setups = append(setups, seconds(sub.setup))
	}
	defer sub.close()
	setup := sub.setup
	mode.logf("%s: set-up %.2fs (build %.2fs, reencode %.2fs, open %.3fs, load %.2fs), %d vertices, %d edges, %d bytes on SSD, %d spilled runs",
		spec.name, setup.Seconds(), sub.buildT.Seconds(), sub.reencodeT.Seconds(), sub.openT.Seconds(), sub.loadT.Seconds(),
		sub.img.NumV, sub.img.NumEdges, sub.img.DataSize(), sub.build.Spills)

	t0 := time.Now()
	og := oracleGraph(1<<scale, edges)
	edges = nil
	qs := buildQueries(spec, seed, og)
	og = nil
	mode.logf("%s: oracle %.2fs, %d queries", spec.name, time.Since(t0).Seconds(), len(qs))

	res := &runResult{
		Workload: spec.name, Seed: seed, Scale: scale,
		Vertices: sub.img.NumV, Edges: sub.img.NumEdges, SSDBytes: sub.img.DataSize(),
		Queries: qs,
	}
	pass := func(env passEnv) passResult {
		if spec.serve {
			return runServePass(sub.shared, spec, qs, env)
		}
		return runBatchPass(sub.shared, spec, qs, env)
	}
	note := func(kind string, p passResult) {
		res.Attempted += p.attempted
		res.Failed += len(p.failures)
		res.Failures = append(res.Failures, p.failures...)
		mode.logf("%s: %s pass wall %.3fs cpu %.3fs, %d/%d ok", spec.name, kind, p.wall.Seconds(), p.cpu.Seconds(), p.attempted-len(p.failures), p.attempted)
	}

	// Warm-up pass: fills the page cache, finishes lazy set-up, and —
	// its times being discarded anyway — takes the forced-GC heap samples.
	heap := &heapSampler{}
	heap.sample()
	note("warm-up", pass(passEnv{heap: heap}))

	// Timed passes, tracing off. A traced-only run still takes one: the
	// untraced reference trace.overhead_frac and core.sem_over_mem need.
	n := mode.passes
	if !mode.timed {
		n = 1
	}
	var timed []passResult
	for i, start := 0, time.Now(); ; i++ {
		if n > 0 && i >= n {
			break
		}
		if n == 0 && i >= minTimedPasses && time.Since(start).Seconds() >= mode.seconds {
			break
		}
		p := pass(passEnv{})
		note(fmt.Sprintf("timed %d", i+1), p)
		timed = append(timed, p)
	}
	res.Passes = len(timed)
	if mode.timed {
		res.EndToEnd = endToEnd(setups, heap, timed)
	}

	if mode.traced {
		lay := &layerInputs{spec: spec, sub: sub, tr: tr, timed: timed, machBefore: machBefore}
		if err := tracedPhase(lay, sz, seed, qs, pass, note, mode); err != nil {
			return nil, err
		}
		lay.machAfter = machineCheck(sz.probeIters)
		res.PerLayer, res.Identity = perLayer(lay)
		if outDir != "" {
			path, err := tr.writeJSONL(outDir)
			if err != nil {
				return nil, err
			}
			res.Trace = path
		}
	}

	res.SSDErrors = sub.arr.Stats().Errors
	if res.SSDErrors > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d device errors", res.SSDErrors))
	}
	return res, nil
}

// layerInputs collects what the per-layer metrics are derived from.
type layerInputs struct {
	spec  workloadSpec
	sub   *substrate
	tr    *tracer
	timed []passResult

	tracedPass passResult
	ssd        ssdDelta
	cache      cacheDelta
	rt         runtimeDelta
	storeReads int64
	storeBusy  time.Duration

	genStream  time.Duration
	inmem      passResult
	probes     probeResults
	machBefore machine
	machAfter  machine
}

// tracedPhase runs the traced pass with every counter snapshotted
// around it, then — only after the SEM numbers are in — the in-memory
// comparison and the probes, which need the image in the heap.
func tracedPhase(lay *layerInputs, sz sizing, seed uint64, qs []query, pass func(passEnv) passResult, note func(string, passResult), mode runMode) error {
	sub, tr := lay.sub, lay.tr

	// gen.stream_s: the generator alone, into a sink that does nothing.
	sp := tr.begin(0, "gen", "stream", 0)
	t0 := time.Now()
	if err := gen.RMATStream(sub.scale, edgesPerVertex, graphSeed(seed), func(graph.Edge) error { return nil }); err != nil {
		return err
	}
	lay.genStream = time.Since(t0)
	tr.end(sp, nil)

	sub.arr.ResetStats()
	ssd0, cache0, rt0 := sub.arr.Stats(), sub.fs.Cache().Stats(), readRuntime()
	sub.timing.Store(true)
	lay.tracedPass = pass(passEnv{tr: tr})
	sub.timing.Store(false)
	lay.ssd = diffSSD(ssd0, sub.arr.Stats())
	lay.cache = diffCache(cache0, sub.fs.Cache().Stats())
	lay.rt = diffRuntime(rt0, readRuntime())
	lay.storeReads, lay.storeBusy = sub.storeCounters()
	note("traced", lay.tracedPass)

	// The same query list once on an in-memory Shared of the same image.
	ram, err := sub.ramImage()
	if err != nil {
		return fmt.Errorf("load image into RAM: %w", err)
	}
	mem, err := memShared(ram)
	if err != nil {
		return err
	}
	if lay.spec.serve {
		lay.inmem = runDirectConcurrent(mem, lay.spec, qs, loadClients)
	} else {
		lay.inmem = runBatchPass(mem, lay.spec, qs, passEnv{})
	}
	note("in-memory", lay.inmem)

	t0 = time.Now()
	lay.probes, err = runProbes(ram, sz, seed)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	mode.logf("%s: probes %.2fs", lay.spec.name, time.Since(t0).Seconds())
	runtime.KeepAlive(mem)
	return nil
}

// runDirectConcurrent runs the serve_mix list straight on engines over
// shared, clients at a time, without the server — the in-memory side of
// core.sem_over_mem for serve_mix. Repeated sources run again: there is
// no result cache here, so only distinct queries are run.
func runDirectConcurrent(shared *core.Shared, spec workloadSpec, qs []query, clients int) passResult {
	seen := map[string]bool{}
	var distinct []query
	for _, q := range qs {
		if !seen[q.String()] {
			seen[q.String()] = true
			distinct = append(distinct, q)
		}
	}
	parts := make([]passResult, clients)
	done := make(chan struct{})
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			var mine []query
			for i := c; i < len(distinct); i += clients {
				mine = append(mine, distinct[i])
			}
			parts[c] = runBatchPass(shared, spec, mine, passEnv{})
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	var res passResult
	for _, p := range parts {
		res.attempted += p.attempted
		res.failures = append(res.failures, p.failures...)
		res.runs = append(res.runs, p.runs...)
	}
	res.wall = time.Since(t0)
	return res
}
