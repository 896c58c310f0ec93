package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// testBFS is a minimal BFS vertex program (paper Figure 4).
type testBFS struct {
	src     graph.VertexID
	visited []int32 // 0 = unvisited, 1 = visited
	level   []int32
}

func (b *testBFS) Init(eng ExecutionEngine) {
	n := eng.NumVertices()
	b.visited = make([]int32, n)
	b.level = make([]int32, n)
	for i := range b.level {
		b.level[i] = -1
	}
	eng.ActivateSeed(b.src)
}

func (b *testBFS) Run(ctx *Ctx, v graph.VertexID) {
	if atomic.CompareAndSwapInt32(&b.visited[v], 0, 1) {
		b.level[v] = int32(ctx.Iteration())
		ctx.RequestSelf(graph.OutEdges)
	}
}

func (b *testBFS) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	n := pv.NumEdges()
	for i := 0; i < n; i++ {
		ctx.Activate(pv.Edge(i))
	}
}

func (b *testBFS) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}

// refBFSLevels computes BFS levels with a plain queue.
func refBFSLevels(a *graph.Adjacency, src graph.VertexID) []int32 {
	level := make([]int32, a.N)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range a.Out[v] {
			if level[u] == -1 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

func buildTestImage(t *testing.T, scale, epv int, seed uint64) (*graph.Image, *graph.Adjacency) {
	t.Helper()
	edges := gen.RMAT(scale, epv, seed)
	a := graph.FromEdges(1<<scale, edges, true)
	a.Dedup()
	return graph.BuildImage(a, 0, nil), a
}

func newTestFS(t *testing.T, cfg safs.Config) *safs.FS {
	t.Helper()
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 32 * 4096})
	t.Cleanup(arr.Close)
	return safs.New(arr, cfg)
}

func semEngine(t *testing.T, img *graph.Image, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Threads: 4, FS: newTestFS(t, safs.Config{CacheBytes: 4 << 20}), RangeShift: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func memEngine(t *testing.T, img *graph.Image, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Threads: 4, InMemory: true, RangeShift: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func checkBFS(t *testing.T, eng *Engine, a *graph.Adjacency) RunStats {
	t.Helper()
	alg := &testBFS{src: 0}
	st, err := eng.Run(alg)
	if err != nil {
		t.Fatal(err)
	}
	want := refBFSLevels(a, 0)
	for v := range want {
		if alg.level[v] != want[v] {
			t.Fatalf("vertex %d: level = %d, want %d", v, alg.level[v], want[v])
		}
	}
	return st
}

func TestBFSSemiExternalMatchesReference(t *testing.T) {
	img, a := buildTestImage(t, 10, 8, 42)
	eng := semEngine(t, img, nil)
	st := checkBFS(t, eng, a)
	if st.EdgeRequests == 0 || st.DeviceReads == 0 || st.BytesRead == 0 {
		t.Fatalf("SEM run should do I/O: %+v", st)
	}
	if st.MergedRequests > st.EdgeRequests {
		t.Fatalf("merging increased requests: %d > %d", st.MergedRequests, st.EdgeRequests)
	}
}

func TestBFSInMemoryMatchesReference(t *testing.T) {
	img, a := buildTestImage(t, 10, 8, 42)
	eng := memEngine(t, img, nil)
	st := checkBFS(t, eng, a)
	if st.DeviceReads != 0 || st.BytesRead != 0 {
		t.Fatalf("in-memory run should not do I/O: %+v", st)
	}
}

// TestBFSAllMergeModes pins what each merge mode DOES, not only that it
// gets the right answer, over a default-constructed FS (there is no
// SAFS-side switch that could disagree with the engine's): one thread,
// with no sibling to steal from, makes the request stream deterministic.
func TestBFSAllMergeModes(t *testing.T) {
	img, a := buildTestImage(t, 13, 8, 7)
	stats := map[MergeMode]RunStats{}
	for _, mode := range []MergeMode{MergeFG, MergeSAFS, MergeNone} {
		eng := semEngine(t, img, func(c *Config) {
			c.Merge = mode
			c.Threads = 1
		})
		stats[mode] = checkBFS(t, eng, a)
	}
	fg, sa, none := stats[MergeFG], stats[MergeSAFS], stats[MergeNone]
	if fg.MergedRequests >= fg.EdgeRequests {
		t.Fatalf("MergeFG: %d ReadTasks for %d edge lists, want fewer", fg.MergedRequests, fg.EdgeRequests)
	}
	for name, st := range map[string]RunStats{"MergeSAFS": sa, "MergeNone": none} {
		if st.MergedRequests != st.EdgeRequests {
			t.Fatalf("%s: %d ReadTasks for %d edge lists, want one each", name, st.MergedRequests, st.EdgeRequests)
		}
	}
	// One thread never steals: the counts are exact, so the 2x bar
	// holds or fails the same way on every run.
	if 2*sa.DeviceReads > none.DeviceReads {
		t.Fatalf("MergeSAFS issued %d device reads, MergeNone %d — SAFS-level merging must cut them at least 2x",
			sa.DeviceReads, none.DeviceReads)
	}
	if sa.DeviceReads > 2*fg.DeviceReads {
		t.Fatalf("MergeSAFS issued %d device reads, MergeFG %d — want within 2x", sa.DeviceReads, fg.DeviceReads)
	}
	t.Logf("device reads: FG %d, SAFS %d, None %d", fg.DeviceReads, sa.DeviceReads, none.DeviceReads)
}

func TestBFSAllSchedulers(t *testing.T) {
	img, a := buildTestImage(t, 9, 6, 8)
	for _, sched := range []SchedMode{SchedByID, SchedRandom} {
		eng := semEngine(t, img, func(c *Config) { c.Sched = sched })
		checkBFS(t, eng, a)
	}
}

func TestBFSSingleThread(t *testing.T) {
	img, a := buildTestImage(t, 9, 6, 9)
	eng := semEngine(t, img, func(c *Config) { c.Threads = 1 })
	checkBFS(t, eng, a)
}

func TestBFSTinyMaxRunning(t *testing.T) {
	// MaxRunning=2 forces many issue/wait cycles.
	img, a := buildTestImage(t, 8, 4, 11)
	eng := semEngine(t, img, func(c *Config) { c.MaxRunning = 2 })
	checkBFS(t, eng, a)
}

func TestMergingReducesRequests(t *testing.T) {
	// With ID-ordered scheduling on a full sweep, merging in FlashGraph
	// must dramatically cut request counts vs no merging.
	img, _ := buildTestImage(t, 10, 8, 12)

	countMerged := func(mode MergeMode) RunStats {
		eng := semEngine(t, img, func(c *Config) { c.Merge = mode })
		st, err := eng.Run(&sweepAll{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fg := countMerged(MergeFG)
	none := countMerged(MergeNone)
	if fg.MergedRequests >= none.MergedRequests {
		t.Fatalf("MergeFG issued %d requests, MergeNone %d — merging ineffective",
			fg.MergedRequests, none.MergedRequests)
	}
	if fg.MergedRequests*4 > none.MergedRequests {
		t.Fatalf("expected >=4x merge factor on full sweep, got %d vs %d",
			fg.MergedRequests, none.MergedRequests)
	}
}

// sweepAll activates every vertex once and reads every out-edge list.
type sweepAll struct {
	touched int64
	edges   int64
}

func (s *sweepAll) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (s *sweepAll) Run(ctx *Ctx, v graph.VertexID) {
	if ctx.Iteration() == 0 {
		ctx.RequestSelf(graph.OutEdges)
	}
}
func (s *sweepAll) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	atomic.AddInt64(&s.touched, 1)
	atomic.AddInt64(&s.edges, int64(pv.NumEdges()))
}
func (s *sweepAll) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}

func TestSweepTouchesEveryVertexOnce(t *testing.T) {
	img, a := buildTestImage(t, 9, 6, 13)
	for name, mk := range map[string]func() *Engine{
		"sem": func() *Engine { return semEngine(t, img, nil) },
		"mem": func() *Engine { return memEngine(t, img, nil) },
	} {
		alg := &sweepAll{}
		if _, err := mk().Run(alg); err != nil {
			t.Fatal(err)
		}
		if alg.touched != int64(img.NumV) {
			t.Fatalf("%s: touched %d vertices, want %d", name, alg.touched, img.NumV)
		}
		var wantEdges int64
		for _, l := range a.Out {
			wantEdges += int64(len(l))
		}
		if alg.edges != wantEdges {
			t.Fatalf("%s: saw %d edges, want %d", name, alg.edges, wantEdges)
		}
	}
}

// echoMsg exercises point-to-point messages and multicast: every vertex
// sends its ID+1 to vertex 0, and vertex 0 multicasts an ack to all.
type echoMsg struct {
	sum     int64 // accumulated at vertex 0
	acked   int64
	ackOnce int64
}

func (m *echoMsg) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (m *echoMsg) Run(ctx *Ctx, v graph.VertexID) {
	if ctx.Iteration() > 0 {
		return
	}
	ctx.Send(0, Message{I64: int64(v) + 1})
}
func (m *echoMsg) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (m *echoMsg) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {
	if msg.Kind == 1 {
		atomic.AddInt64(&m.acked, 1)
		return
	}
	atomic.AddInt64(&m.sum, msg.I64)
	// First message triggers the multicast ack exactly once, from the
	// owner thread of vertex 0.
	if atomic.AddInt64(&m.ackOnce, 1) == 1 {
		n := ctx.NumVertices()
		targets := make([]graph.VertexID, n)
		for i := range targets {
			targets[i] = graph.VertexID(i)
		}
		ctx.Multicast(targets, Message{Kind: 1})
	}
}

func TestMessagesAndMulticast(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 14)
	eng := memEngine(t, img, nil)
	alg := &echoMsg{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	n := int64(img.NumV)
	wantSum := n * (n + 1) / 2
	if alg.sum != wantSum {
		t.Fatalf("sum = %d, want %d", alg.sum, wantSum)
	}
	if alg.acked != n {
		t.Fatalf("acked = %d, want %d (multicast must reach every vertex)", alg.acked, n)
	}
}

func TestEngineMaxIterations(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 15)
	eng := memEngine(t, img, nil)
	st, err := eng.Run(&pingPong{iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", st.Iterations)
	}
}

// pingPong reactivates vertex 0 forever; only the cap it declares through
// IterationLimiter stops it.
type pingPong struct{ iters int }

func (p *pingPong) Init(eng ExecutionEngine) { eng.ActivateSeed(0) }
func (p *pingPong) MaxIterations() int       { return p.iters }
func (p *pingPong) Run(ctx *Ctx, v graph.VertexID) {
	ctx.Activate(v)
}
func (p *pingPong) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (p *pingPong) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

func TestEngineReusableAcrossRuns(t *testing.T) {
	img, a := buildTestImage(t, 9, 6, 16)
	eng := semEngine(t, img, nil)
	checkBFS(t, eng, a)
	checkBFS(t, eng, a) // second run on the same engine
	alg := &sweepAll{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if alg.touched != int64(img.NumV) {
		t.Fatalf("third run touched %d", alg.touched)
	}
}

func TestConcurrentRunsOverOneShared(t *testing.T) {
	// Many BFS runs from different sources execute simultaneously over
	// one Shared substrate (one SAFS instance, one page cache, one SSD
	// array). Every run must match the serial reference — per-run state
	// (bitmaps, queues, message buffers, I/O contexts) must not leak
	// across runs.
	img, a := buildTestImage(t, 10, 8, 42)
	fs := newTestFS(t, safs.Config{CacheBytes: 2 << 20})
	shared, err := NewShared(img, Config{Threads: 2, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(src graph.VertexID) {
			defer wg.Done()
			eng := shared.NewRun()
			alg := &testBFS{src: src}
			st, err := eng.Run(alg)
			if err != nil {
				errs <- err
				return
			}
			if st.EdgeRequests == 0 {
				errs <- fmt.Errorf("src %d: no edge requests", src)
				return
			}
			want := refBFSLevels(a, src)
			for v := range want {
				if alg.level[v] != want[v] {
					errs <- fmt.Errorf("src %d vertex %d: level = %d, want %d", src, v, alg.level[v], want[v])
					return
				}
			}
		}(graph.VertexID(r * 37 % img.NumV))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPerRunStatsIsolatedUnderConcurrency(t *testing.T) {
	// Two concurrent sweeps over one Shared: each run's CacheHits +
	// CacheMisses must equal its own page demand, not the substrate
	// total. A full out-edge sweep touches every out-file page at least
	// once, and per-run counters must not double-count the sibling's
	// traffic (the sum of both runs' page touches must not exceed the
	// cache's global lookups).
	img, _ := buildTestImage(t, 10, 8, 24)
	fs := newTestFS(t, safs.Config{CacheBytes: 2 << 20})
	shared, err := NewShared(img, Config{Threads: 2, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 2
	stats := make([]RunStats, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			st, err := shared.NewRun().Run(&sweepAll{})
			if err != nil {
				t.Error(err)
				return
			}
			stats[r] = st
		}(r)
	}
	wg.Wait()
	pageSize := int64(fs.PageSize())
	filePages := (int64(len(img.OutData)) + pageSize - 1) / pageSize
	var totalTouches int64
	for r, st := range stats {
		touches := st.CacheHits + st.CacheMisses
		if touches < filePages {
			t.Errorf("run %d touched %d pages, want >= %d (full sweep)", r, touches, filePages)
		}
		if st.BytesRead != st.CacheMisses*pageSize {
			t.Errorf("run %d: BytesRead %d != misses %d x page %d", r, st.BytesRead, st.CacheMisses, pageSize)
		}
		totalTouches += touches
	}
	cs := fs.Cache().Stats()
	if global := cs.Hits + cs.Misses + cs.Bypasses; totalTouches > global {
		t.Errorf("per-run touches %d exceed global lookups %d — counters leak across runs", totalTouches, global)
	}
}

func TestRunStatsSanity(t *testing.T) {
	img, _ := buildTestImage(t, 10, 8, 17)
	eng := semEngine(t, img, nil)
	st, err := eng.Run(&sweepAll{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
	if st.CacheHitRate() < 0 || st.CacheHitRate() > 1 {
		t.Fatalf("hit rate = %v", st.CacheHitRate())
	}
	if st.MemoryBytes <= 0 {
		t.Fatal("memory footprint not estimated")
	}
	if st.CPUUtil < 0 || st.CPUUtil > 1.01 {
		t.Fatalf("cpu util = %v", st.CPUUtil)
	}
	// A full sweep reads every out-edge byte at page granularity: bytes
	// read must be at least the out-file size.
	if st.BytesRead < int64(len(img.OutData)) {
		t.Fatalf("bytes read %d < out-file size %d", st.BytesRead, len(img.OutData))
	}
}

func TestInEdgeRequests(t *testing.T) {
	img, a := buildTestImage(t, 9, 6, 18)
	eng := semEngine(t, img, nil)
	alg := &inSweep{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	var wantEdges int64
	for _, l := range a.In {
		wantEdges += int64(len(l))
	}
	if alg.edges != wantEdges {
		t.Fatalf("in-edges seen = %d, want %d", alg.edges, wantEdges)
	}
}

// inSweep reads every in-edge list.
type inSweep struct{ edges int64 }

func (s *inSweep) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (s *inSweep) Run(ctx *Ctx, v graph.VertexID) {
	ctx.RequestSelf(graph.InEdges)
}
func (s *inSweep) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	atomic.AddInt64(&s.edges, int64(pv.NumEdges()))
}
func (s *inSweep) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}

func TestRequestOtherVerticesEdgeLists(t *testing.T) {
	// Triangle-counting-style access: vertex 0 requests the edge lists
	// of all its neighbors.
	img, a := buildTestImage(t, 9, 6, 19)
	eng := semEngine(t, img, nil)
	alg := &neighborReader{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	want := int64(len(a.Out[0]))
	if alg.neighborLists != want {
		t.Fatalf("received %d neighbor lists, want %d", alg.neighborLists, want)
	}
}

type neighborReader struct {
	neighborLists int64
}

func (nr *neighborReader) Init(eng ExecutionEngine) { eng.ActivateSeed(0) }
func (nr *neighborReader) Run(ctx *Ctx, v graph.VertexID) {
	ctx.RequestSelf(graph.OutEdges)
}
func (nr *neighborReader) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if pv.ID == v && ctx.Iteration() == 0 {
		n := pv.NumEdges()
		for i := 0; i < n; i++ {
			ctx.RequestEdges(graph.OutEdges, pv.Edge(i))
		}
		return
	}
	atomic.AddInt64(&nr.neighborLists, 1)
}
func (nr *neighborReader) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}

func TestVerticalPartitioning(t *testing.T) {
	img, _ := buildTestImage(t, 8, 6, 20)
	eng := memEngine(t, img, nil)
	alg := &partedSweep{parts: 4, seen: make(map[int]int64)}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	// Every vertex must have run all 4 parts, and parts must be
	// observed in ascending phase order.
	for p := 0; p < 4; p++ {
		if alg.seen[p] != int64(img.NumV) {
			t.Fatalf("part %d ran %d times, want %d", p, alg.seen[p], img.NumV)
		}
	}
	if alg.outOfOrder != 0 {
		t.Fatalf("%d part executions out of phase order", alg.outOfOrder)
	}
}

// partedSweep splits every vertex into `parts` vertical parts.
type partedSweep struct {
	parts      int
	mu         sync.Mutex
	seen       map[int]int64
	maxPart    int32
	outOfOrder int64
}

func (ps *partedSweep) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (ps *partedSweep) NumParts(eng *Engine, v graph.VertexID) int {
	return ps.parts
}
func (ps *partedSweep) Run(ctx *Ctx, v graph.VertexID) {
	p := ctx.Part()
	if int32(p) < atomic.LoadInt32(&ps.maxPart) {
		atomic.AddInt64(&ps.outOfOrder, 1)
	}
	atomic.StoreInt32(&ps.maxPart, int32(p))
	ps.mu.Lock()
	ps.seen[p]++
	ps.mu.Unlock()
}
func (ps *partedSweep) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (ps *partedSweep) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

// TestCustomSchedulerOrdersExecution: order and window are the program's.
// Under the zero-value config a CustomScheduler is obeyed (the caller sets
// no Sched), the SchedRandom ablation still overrides it, and a declared
// window is min-combined with Config.MaxRunning.
func TestCustomSchedulerOrdersExecution(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 21)
	descending := func(eng *Engine, order []graph.VertexID) bool {
		return sort.SliceIsSorted(order, func(i, j int) bool {
			return eng.OutDegree(order[i]) > eng.OutDegree(order[j])
		})
	}
	// Single thread so the global order is observable.
	for _, sched := range []SchedMode{SchedByID, SchedCustom} {
		eng := memEngine(t, img, func(c *Config) { c.Threads, c.Sched = 1, sched })
		alg := &orderProbe{}
		if _, err := eng.Run(alg); err != nil {
			t.Fatal(err)
		}
		if len(alg.order) != img.NumV || !descending(eng, alg.order) {
			t.Fatalf("Sched %d: %d vertices run, not in the program's degree-descending order", sched, len(alg.order))
		}
	}
	eng := memEngine(t, img, func(c *Config) { c.Threads, c.Sched = 1, SchedRandom })
	alg := &orderProbe{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if len(alg.order) != img.NumV || descending(eng, alg.order) {
		t.Fatal("SchedRandom ran the program's order; the ablation must override it")
	}

	for _, c := range []struct{ cfg, prog, want int }{
		{0, 0, 4000}, // neither declares: the default
		{0, 7, 7},    // the program tightens the default
		{5, 7, 5},    // the deployment is tighter still
		{64, 512, 64},
		{9, -1, 9}, // 0 or less declares nothing
	} {
		eng := memEngine(t, img, func(cfg *Config) { cfg.MaxRunning = c.cfg })
		if _, err := eng.Run(&orderProbe{window: c.prog}); err != nil {
			t.Fatal(err)
		}
		if eng.maxRunning != c.want {
			t.Errorf("Config.MaxRunning %d, program window %d: engine ran with %d, want %d", c.cfg, c.prog, eng.maxRunning, c.want)
		}
	}
	// And the window is what bounds the running set: one SEM worker never
	// has more edge lists outstanding than the program allows.
	sem := semEngine(t, img, func(c *Config) { c.Threads = 1 })
	wp := &windowProbe{window: 7}
	if _, err := sem.Run(wp); err != nil {
		t.Fatal(err)
	}
	if wp.peak < 2 || wp.peak > 7 {
		t.Fatalf("peak of %d vertices in the running state under a declared window of 7", wp.peak)
	}
}

// windowProbe has every vertex request its own edge list and records the
// most requests it ever had outstanding (one worker: plain fields).
type windowProbe struct{ window, inflight, peak int }

func (wp *windowProbe) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (wp *windowProbe) MaxRunning() int          { return wp.window }
func (wp *windowProbe) Run(ctx *Ctx, v graph.VertexID) {
	ctx.RequestSelf(graph.OutEdges)
	wp.inflight++
	wp.peak = max(wp.peak, wp.inflight)
}
func (wp *windowProbe) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) { wp.inflight-- }
func (wp *windowProbe) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

type orderProbe struct {
	mu     sync.Mutex
	order  []graph.VertexID
	window int
}

func (op *orderProbe) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (op *orderProbe) MaxRunning() int          { return op.window }
func (op *orderProbe) Order(eng *Engine, vs []graph.VertexID) {
	sort.Slice(vs, func(i, j int) bool {
		return eng.OutDegree(vs[i]) > eng.OutDegree(vs[j])
	})
}
func (op *orderProbe) Run(ctx *Ctx, v graph.VertexID) {
	op.mu.Lock()
	op.order = append(op.order, v)
	op.mu.Unlock()
}
func (op *orderProbe) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (op *orderProbe) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

func TestIterationEndNotification(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 22)
	eng := memEngine(t, img, nil)
	alg := &iterEndProbe{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&alg.notified) != 1 {
		t.Fatalf("notified = %d, want exactly 1", alg.notified)
	}
}

type iterEndProbe struct{ notified int64 }

func (ip *iterEndProbe) Init(eng ExecutionEngine) { eng.ActivateSeed(3) }
func (ip *iterEndProbe) Run(ctx *Ctx, v graph.VertexID) {
	ctx.NotifyIterationEnd()
}
func (ip *iterEndProbe) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (ip *iterEndProbe) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}
func (ip *iterEndProbe) RunOnIterationEnd(ctx *Ctx, v graph.VertexID) {
	atomic.AddInt64(&ip.notified, 1)
}

func TestWorkStealingHappensOnSkew(t *testing.T) {
	// All active vertices land in worker 0's first range; with stealing
	// enabled other workers should take some.
	img, _ := buildTestImage(t, 10, 4, 23)
	eng := semEngine(t, img, func(c *Config) {
		c.RangeShift = 16 // one giant range: all vertices in partition 0
		c.Threads = 4
		// Small batches keep vertices queued (stealable) while worker 0
		// waits on I/O; with a large cap it would drain its own queue
		// into the running state before thieves arrive.
		c.MaxRunning = 8
	})
	st, err := eng.Run(&sweepAll{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steals == 0 {
		t.Fatal("expected steals with a single-partition skew")
	}
}

// vertexPanic panics inside Run, which executes on a worker goroutine.
type vertexPanic struct{}

func (p *vertexPanic) Init(eng ExecutionEngine)                                     { eng.ActivateSeed(0) }
func (p *vertexPanic) Run(ctx *Ctx, v graph.VertexID)                               { panic("vertex boom") }
func (p *vertexPanic) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (p *vertexPanic) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

func TestWorkerPanicAbortsRunAndPoisonsEngine(t *testing.T) {
	img, a := buildTestImage(t, 8, 4, 30)
	eng := memEngine(t, img, nil)
	_, err := eng.Run(&vertexPanic{})
	if err == nil || !strings.Contains(err.Error(), "vertex boom") {
		t.Fatalf("err = %v, want worker-panic abort", err)
	}
	// The poisoned run context refuses reuse...
	if _, err := eng.Run(&sweepAll{}); err == nil {
		t.Fatal("poisoned engine accepted another run")
	}
	// ...but the shared substrate is unaffected: a fresh run works.
	checkBFS(t, eng.Shared().NewRun(), a)
}

// midIOPanic panics inside RunOnVertex — mid page-cache task, with
// views pinned across its worker's in-flight batch.
type midIOPanic struct{ calls int64 }

func (p *midIOPanic) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (p *midIOPanic) Run(ctx *Ctx, v graph.VertexID) {
	if ctx.Iteration() == 0 {
		ctx.RequestSelf(graph.OutEdges)
	}
}
func (p *midIOPanic) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if atomic.AddInt64(&p.calls, 1) == 40 {
		panic("io boom")
	}
}
func (p *midIOPanic) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}

func TestAbortedRunReleasesCachePins(t *testing.T) {
	// A run that dies mid-I/O must return every pinned frame to the
	// SHARED page cache; leaked pins would permanently shrink the cache
	// for sibling queries.
	img, a := buildTestImage(t, 9, 6, 31)
	fs := newTestFS(t, safs.Config{CacheBytes: 1 << 20})
	shared, err := NewShared(img, Config{Threads: 2, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.NewRun().Run(&midIOPanic{}); err == nil || !strings.Contains(err.Error(), "io boom") {
		t.Fatalf("err = %v, want abort from mid-I/O panic", err)
	}
	if n := fs.Cache().PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned after aborted run", n)
	}
	// The substrate still serves fresh runs correctly.
	checkBFS(t, shared.NewRun(), a)
}
