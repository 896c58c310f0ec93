package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/ssd"
)

// smokeSize is every workload at RMAT scale 10 with unpaced devices.
var smokeSize = sizing{batchScale: 10, serveScale: 10, throttle: false, probeIters: 64, ingestMem: 1 << 20}

func smokeRun(t *testing.T, spec workloadSpec, seed uint64) *runResult {
	t.Helper()
	mode := runMode{timed: true, traced: true, passes: 1}
	res, err := runWorkload(spec, smokeSize, seed, mode, t.TempDir(), "")
	if err != nil {
		t.Fatalf("%s: %v", spec.name, err)
	}
	return res
}

// TestSmoke runs every workload with 1 + 1 passes and holds the
// declarations, BENCHMARK.json and the emitted metrics together.
func TestSmoke(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, declared any
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	mine, _ := json.Marshal(buildManifest())
	json.Unmarshal(mine, &declared)
	if !reflect.DeepEqual(onDisk, declared) {
		t.Errorf("BENCHMARK.json differs from the declarations in metrics.go/settings.go; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndDecls); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerDecls); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEndDecls...), perLayerDecls...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndDecls {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	for _, spec := range workloads {
		if !nameRE.MatchString(spec.name) || len(spec.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", spec.name)
		}
		a := smokeRun(t, spec, 7)
		if a.Attempted == 0 || a.Failed != 0 || len(a.Failures) != 0 {
			t.Errorf("%s: oracle check: attempted %d, failed %d: %v", spec.name, a.Attempted, a.Failed, a.Failures)
		}
		for _, q := range a.Queries {
			if q.want == "" {
				t.Errorf("%s: query %s has no oracle checksum", spec.name, q)
			}
		}
		// Every declared metric exactly once (maps cannot hold twice; the
		// count rules out extras), and end-to-end ones never 0.
		if len(a.EndToEnd) != len(endToEndDecls) || len(a.PerLayer) != len(perLayerDecls) {
			t.Errorf("%s: emitted %d + %d metrics, declared %d + %d", spec.name, len(a.EndToEnd), len(a.PerLayer), len(endToEndDecls), len(perLayerDecls))
		}
		for _, d := range endToEndDecls {
			if m := a.EndToEnd[d.Name]; m == nil || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v", spec.name, d.Name, m)
			}
		}
		for _, d := range perLayerDecls {
			if m := a.PerLayer[d.Name]; m == nil || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", spec.name, d.Name, m)
			}
		}
		var line bytes.Buffer
		if err := printContractLine(&line, a, 0); err != nil || !json.Valid(line.Bytes()) {
			t.Errorf("%s: contract line: %v %s", spec.name, err, line.String())
		}

		// The same seed gives the same query list and, off the server, the
		// same exact-repeat counters.
		b := smokeRun(t, spec, 7)
		if !reflect.DeepEqual(a.Queries, b.Queries) {
			t.Errorf("%s: seed 7 gave two different query lists", spec.name)
		}
		if !spec.serve {
			for _, name := range exactRepeat {
				if x, y := a.PerLayer[name].Value, b.PerLayer[name].Value; x != y {
					t.Errorf("%s: %s did not repeat: %v then %v", spec.name, name, x, y)
				}
			}
		}
		other := buildQueries(spec, 8, oracleGraph(1<<a.Scale, gen.RMAT(a.Scale, edgesPerVertex, graphSeed(8))))
		if reflect.DeepEqual(a.Queries, other) && len(a.Queries) > 2 {
			t.Errorf("%s: seeds 7 and 8 gave the same query list", spec.name)
		}
	}
}

// TestOracleCatchesWrongAnswer corrupts one expected checksum and
// requires the pass to report it.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	spec, _ := specByName("bfs_sem")
	var edges []graph.Edge
	sub, err := buildSubstrate(spec, smokeSize, 3, t.TempDir(), func(e graph.Edge) { edges = append(edges, e) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.close()
	qs := buildQueries(spec, 3, oracleGraph(1<<sub.scale, edges))
	if p := runBatchPass(sub.shared, spec, qs, passEnv{}); len(p.failures) != 0 {
		t.Fatalf("clean pass failed: %v", p.failures)
	}
	qs[5].want = "0000000000000000"
	if p := runBatchPass(sub.shared, spec, qs, passEnv{}); len(p.failures) != 1 {
		t.Fatalf("corrupted oracle checksum: %d failures, want 1", len(p.failures))
	}
}

// ender is a vertex program with every optional interface, to check the
// wrapper passes each through.
type ender struct{ *algo.BFS }

func (ender) RunOnIterationEnd(*core.Ctx, graph.VertexID) {}
func (ender) Order(*core.Engine, []graph.VertexID)        {}
func (ender) NumParts(*core.Engine, graph.VertexID) int   { return 1 }
func (ender) OnIterationEnd(*core.Engine)                 {}
func (ender) MaxIterations() int                          { return 3 }

func implements[T any](x any) bool {
	_, ok := x.(T)
	return ok
}

func checksumOf(p core.Program) string { return result.From(p, "").Checksum() }

// near allows 5%, or 32 on counts too small for a percentage to mean much.
func near(a, b int64) bool {
	return math.Abs(float64(a-b)) <= math.Max(32, 0.05*float64(max(a, b)))
}

func run(t *testing.T, e core.ExecutionEngine, p core.Program) core.RunStats {
	t.Helper()
	st, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func smallImage(scale int, enc graph.Encoding) *graph.Image {
	a := graph.FromEdges(1<<scale, gen.RMAT(scale, 8, 11), true)
	a.Dedup()
	img, err := reencodeRAM(graph.BuildImage(a, 0, nil), enc)
	if err != nil {
		panic(err)
	}
	return img
}

func memEngineCfg(t *testing.T, img *graph.Image, cfg core.Config) *core.Shared {
	t.Helper()
	cfg.Threads, cfg.RangeShift, cfg.InMemory = engineThreads, rangeShift, true
	s, err := core.NewShared(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWrapperFidelity: the forwarding wrappers offer exactly the optional
// interfaces of the program they wrap, and a wrapped run is the same run.
func TestWrapperFidelity(t *testing.T) {
	for _, inner := range []core.Algorithm{
		algo.NewPageRank(), algo.NewBFS(0), algo.NewBC(0), algo.NewTC(), algo.NewScanStat(), ender{algo.NewBFS(0)},
	} {
		w, _ := wrapAlgorithm(inner, nil)
		for name, pair := range map[string][2]bool{
			"IterationLimiter":      {implements[core.IterationLimiter](inner), implements[core.IterationLimiter](w)},
			"IterationHook":         {implements[core.IterationHook](inner), implements[core.IterationHook](w)},
			"StateSized":            {implements[core.StateSized](inner), implements[core.StateSized](w)},
			"ResultProducer":        {implements[core.ResultProducer](inner), implements[core.ResultProducer](w)},
			"IterationEnder":        {implements[core.IterationEnder](inner), implements[core.IterationEnder](w)},
			"CustomScheduler":       {implements[core.CustomScheduler](inner), implements[core.CustomScheduler](w)},
			"VerticallyPartitioned": {implements[core.VerticallyPartitioned](inner), implements[core.VerticallyPartitioned](w)},
		} {
			if pair[0] && !pair[1] {
				t.Errorf("%T: wrapper drops %s", inner, name)
			}
			behaviourChanging := name == "IterationEnder" || name == "CustomScheduler" || name == "VerticallyPartitioned"
			if behaviourChanging && pair[1] && !pair[0] {
				t.Errorf("%T: wrapper adds %s, which changes what the engine does", inner, name)
			}
		}
	}
	if l, _ := wrapAlgorithm(ender{algo.NewBFS(0)}, nil); l.(core.IterationLimiter).MaxIterations() != 3 {
		t.Error("wrapper does not forward MaxIterations")
	}
	if l, _ := wrapAlgorithm(algo.NewBFS(0), nil); l.(core.IterationLimiter).MaxIterations() != 0 {
		t.Error("wrapper invents an iteration cap")
	}

	// SEM, file-backed, PageRank: wrapped and bare runs agree.
	spec, _ := specByName("pr_sem")
	sz := smokeSize
	sz.batchScale = 12
	sub, err := buildSubstrate(spec, sz, 5, t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.close()
	bare := algo.NewPageRank()
	bst := run(t, sub.shared.NewRun(), bare)
	inner := algo.NewPageRank()
	iters := 0
	wrapped, handle := wrapAlgorithm(inner, func(int) { iters++ })
	sub.timing.Store(true)
	wst := run(t, sub.shared.NewRun(), wrapped)
	sub.timing.Store(false)
	if checksumOf(bare) != checksumOf(inner) || checksumOf(wrapped) != checksumOf(bare) {
		t.Error("wrapped PageRank checksum differs from bare")
	}
	if bst.Iterations != wst.Iterations || iters != wst.Iterations || bst.EdgeRequests != wst.EdgeRequests || bst.Messages != wst.Messages {
		t.Errorf("wrapped run differs: iterations %d/%d (observer saw %d), edge requests %d/%d, messages %d/%d",
			bst.Iterations, wst.Iterations, iters, bst.EdgeRequests, wst.EdgeRequests, bst.Messages, wst.Messages)
	}
	// Device reads follow thread timing (which vertices merge into one
	// request). So do steals, and at this size they swing between 0 and
	// ~1000 from one bare run to the next, so they are only logged.
	if !near(bst.DeviceReads, wst.DeviceReads) {
		t.Errorf("device reads %d/%d differ by more than 5%%", bst.DeviceReads, wst.DeviceReads)
	}
	t.Logf("steals bare %d, wrapped %d", bst.Steals, wst.Steals)
	tot := handle.totals()
	if tot.messageCalls != wst.Messages || tot.vertexCalls != wst.EdgeRequests {
		t.Errorf("wrapper counted %d messages, %d edge lists; engine reports %d, %d", tot.messageCalls, tot.vertexCalls, wst.Messages, wst.EdgeRequests)
	}
	if reads, _ := sub.storeCounters(); reads != wst.DeviceReads {
		t.Errorf("timing stores saw %d reads, devices %d", reads, wst.DeviceReads)
	}

	// Behaviour-changing interfaces in use: TC (vertical partitioning)
	// and scan statistics (custom scheduler) give the same answers wrapped.
	img := smallImage(9, graph.EncodingRaw)
	for _, c := range []struct {
		mk     func() core.Algorithm
		cfg    core.Config
		answer func(core.Algorithm) any
	}{
		{func() core.Algorithm { tc := algo.NewTC(); tc.PartSize = 16; return tc }, core.Config{},
			func(a core.Algorithm) any { return checksumOf(a) }},
		// Pruning makes scan statistics' per-vertex work depend on thread
		// timing; the maximum it finds does not.
		{func() core.Algorithm { return algo.NewScanStat() }, core.Config{Sched: core.SchedCustom, MaxRunning: 64},
			func(a core.Algorithm) any { return a.(*algo.ScanStat).Max }},
	} {
		shared := memEngineCfg(t, img, c.cfg)
		b, in := c.mk(), c.mk()
		w, _ := wrapAlgorithm(in, nil)
		bs, ws := run(t, shared.NewRun(), b), run(t, shared.NewRun(), w)
		if c.answer(b) != c.answer(in) || bs.Iterations != ws.Iterations {
			t.Errorf("%T: wrapped run differs from bare: %v/%v, iterations %d/%d", b, c.answer(b), c.answer(in), bs.Iterations, ws.Iterations)
		}
	}

	// SpMV form over the block layout.
	shared := memEngineCfg(t, smallImage(9, graph.EncodingBlock), core.Config{})
	sb, sin := algo.NewPageRank(), algo.NewPageRank()
	sw := &tracedSpMV{inner: sin}
	eb, _ := shared.NewEngine(core.EngineSpMV)
	ew, _ := shared.NewEngine(core.EngineSpMV)
	bs, ws := run(t, eb, sb), run(t, ew, sw)
	if checksumOf(sb) != checksumOf(sin) || bs.Iterations != ws.Iterations || bs.Iterations > 30 {
		t.Errorf("wrapped SpMV PageRank differs from bare (iterations %d/%d)", bs.Iterations, ws.Iterations)
	}
	if sw.totals().applyRowCalls == 0 || sw.StateBytes() != sin.StateBytes() {
		t.Error("SpMV wrapper counted no rows or dropped StateSized")
	}
}

// vecProbe records which read path reached the store.
type vecProbe struct {
	ssd.MemStore
	vec, plain int
}

func (v *vecProbe) ReadVecAt(vec [][]byte, off int64) (int, error) {
	v.vec++
	return v.MemStore.ReadVecAt(vec, off)
}
func (v *vecProbe) ReadAt(p []byte, off int64) (int, error) {
	v.plain++
	return v.MemStore.ReadAt(p, off)
}

// TestTimingStoreKeepsVectoredPath: a scatter read through the timing
// store is still one vectored call on the store beneath it.
func TestTimingStoreKeepsVectoredPath(t *testing.T) {
	var on atomic.Bool
	inner := &vecProbe{}
	ts := newTimingStore(inner, &on)
	if _, ok := ssd.Store(ts).(ssd.VecReader); !ok {
		t.Fatal("timing store is not a VecReader")
	}
	vec := [][]byte{make([]byte, 8), make([]byte, 8)}
	for _, enabled := range []bool{false, true} {
		on.Store(enabled)
		if n, err := ts.ReadVecAt(vec, 0); n != 16 || err != nil {
			t.Fatalf("ReadVecAt = %d, %v", n, err)
		}
	}
	if inner.vec != 2 || inner.plain != 0 {
		t.Errorf("inner store saw %d vectored and %d plain reads, want 2 and 0", inner.vec, inner.plain)
	}
	if ts.reads.Load() != 1 {
		t.Errorf("timing store counted %d reads while on, want 1", ts.reads.Load())
	}
}

// TestCompareVerdicts feeds -compare two synthetic ledgers.
func TestCompareVerdicts(t *testing.T) {
	mk := func(wall ...float64) *ledger {
		l := &ledger{}
		for i, w := range wall {
			l.Runs = append(l.Runs, &runResult{Workload: "pr_sem", Seed: uint64(i), EndToEnd: map[string]*measurement{
				"wall_s": {Value: w, Unit: "s"},
			}})
		}
		return l
	}
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		blob, _ := json.Marshal(l)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("old.json", mk(1.00, 1.01, 0.99, 1.00, 1.02))
	for want, l := range map[string]*ledger{
		"within":     mk(1.03, 1.02, 1.04, 1.03, 1.03),
		"worse":      mk(1.40, 1.41, 1.39, 1.40, 1.42),
		"better":     mk(0.80, 0.81, 0.79, 0.80, 0.82),
		"unresolved": mk(0.60, 1.50, 0.80, 1.30, 1.00),
	} {
		var out bytes.Buffer
		if err := compareLedgers(&out, base, write(want+".json", l)); err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(`wall_s .* ` + want + ` \(`).Match(out.Bytes()) {
			t.Errorf("want verdict %q, got:\n%s", want, out.String())
		}
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}

// TestLatencyQuantilesShedADisturbance: a stall that slows the end of
// one pass and the start of the next, two passes of three, must not move
// query_p50_ms or query_p95_ms; a query that is slow in every pass must.
func TestLatencyQuantilesShedADisturbance(t *testing.T) {
	const queries = 24
	pass := func(slow func(q int) bool) passResult {
		p := passResult{wall: time.Second, cpu: time.Second}
		for q := 0; q < queries; q++ {
			d := time.Duration(100+q) * time.Millisecond
			if slow(q) {
				d *= 3
			}
			p.latencies = append(p.latencies, d)
		}
		return p
	}
	never := func(int) bool { return false }
	quiet := endToEnd([]float64{1}, &heapSampler{}, []passResult{pass(never), pass(never), pass(never)})
	stalled := endToEnd([]float64{1}, &heapSampler{}, []passResult{
		pass(func(q int) bool { return q >= 16 }), pass(func(q int) bool { return q < 8 }), pass(never),
	})
	for _, name := range []string{"query_p50_ms", "query_p95_ms"} {
		if quiet[name].Value != stalled[name].Value {
			t.Errorf("%s: %v on a quiet run, %v with a stall across two passes", name, quiet[name].Value, stalled[name].Value)
		}
	}
	if got, want := quiet["query_p95_ms"].Value, 122.0; got != want {
		t.Errorf("query_p95_ms = %v, want %v (the 23rd of 24)", got, want)
	}
	always := func(q int) bool { return q%8 == 0 }
	slowed := endToEnd([]float64{1}, &heapSampler{}, []passResult{pass(always), pass(always), pass(always)})
	if slowed["query_p95_ms"].Value <= quiet["query_p95_ms"].Value {
		t.Errorf("query_p95_ms did not move when 3 of 24 queries were slow in every pass")
	}
}
