package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/qos"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

func buildShared(t *testing.T, threads int) *core.Shared {
	t.Helper()
	edges := gen.RMAT(9, 6, 77)
	a := graph.FromEdges(1<<9, edges, true)
	a.Dedup()
	img := graph.BuildImage(a, 0, nil)
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 32 * 4096})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	shared, err := core.NewShared(img, core.Config{Threads: threads, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	return shared
}

// TestConcurrentMatchesSerialBitIdentical is the serve-layer isolation
// guarantee: N concurrent runs of BFS, PageRank, and WCC over one
// shared engine substrate produce ResultSets bit-identical to serial
// runs — verified through the typed result contract (point lookups and
// checksums), not by reaching into algorithm internals. Threads=1 makes
// each individual run's float accumulation order deterministic, so any
// divergence must come from cross-query state leakage.
func TestConcurrentMatchesSerialBitIdentical(t *testing.T) {
	shared := buildShared(t, 1)

	// Serial references, through the same ResultSet contract.
	refs := map[string]*result.ResultSet{}
	for name, alg := range map[string]core.Algorithm{
		"bfs":      algo.NewBFS(0),
		"pagerank": algo.NewPageRank(),
		"wcc":      algo.NewWCC(),
	} {
		if _, err := shared.NewRun().Run(alg); err != nil {
			t.Fatal(err)
		}
		refs[name] = result.From(alg, name)
	}

	// Identical submits would run once (hit or coalesce), so each copy
	// goes in under its own server-local name: nine real runs, every slot
	// open to every class so they overlap.
	const copies = 3
	var aliases []AlgorithmSpec
	for name := range refs {
		for i := 1; i < copies; i++ {
			spec, _ := DefaultSpec(name)
			spec.Name = fmt.Sprintf("%s-%d", name, i)
			aliases = append(aliases, spec)
		}
	}
	srv := New(shared, Config{MaxConcurrent: 4, Algorithms: aliases,
		QoS: qos.Config{ReservedSlots: -1, BatchSlots: -1}})
	defer srv.Close()

	var ids []int64
	for i := 0; i < copies; i++ {
		for _, algoName := range []string{"bfs", "pagerank", "wcc"} {
			if i > 0 {
				algoName = fmt.Sprintf("%s-%d", algoName, i)
			}
			id, err := srv.Submit(Request{Version: 1, Algo: algoName})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		q, err := srv.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if q.State != StateDone || q.Cache != "" {
			t.Fatalf("query %d (%s): state %s, cache %q, error %q; want done after its own run", id, q.Req.Algo, q.State, q.Cache, q.Error)
		}
		if q.Stats.EdgeRequests == 0 {
			t.Fatalf("query %d (%s): no per-query I/O stats", id, q.Req.Algo)
		}
		base, _, _ := strings.Cut(q.Req.Algo, "-")
		ref := refs[base]
		rs, err := srv.ResultSet(id)
		if err != nil {
			t.Fatalf("query %d: ResultSet: %v", id, err)
		}
		if got, want := rs.Checksum(), ref.Checksum(); got != want {
			t.Fatalf("%s query %d: checksum %s, want %s (not bit-identical)", q.Req.Algo, id, got, want)
		}
		// Point lookups must agree exactly too (float64 compared by bits).
		for _, v := range []int{0, 1, 100, (1 << 9) - 1} {
			got, err := srv.Lookup(id, "", v)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ref.Lookup("", v)
			gf, gok := got.Value.(float64)
			wf, wok := want.Value.(float64)
			if gok && wok {
				if math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("%s lookup[%d] = %x, want %x", q.Req.Algo, v, math.Float64bits(gf), math.Float64bits(wf))
				}
			} else if got.Value != want.Value {
				t.Fatalf("%s lookup[%d] = %v, want %v", q.Req.Algo, v, got.Value, want.Value)
			}
		}
	}
	// All copies of one algorithm must also publish one summary checksum.
	sums := map[string]map[string]bool{}
	for _, q := range srv.List() {
		if cs, ok := q.Result["checksum"].(string); ok {
			base, _, _ := strings.Cut(q.Req.Algo, "-")
			if sums[base] == nil {
				sums[base] = map[string]bool{}
			}
			sums[base][cs] = true
		}
	}
	for name, set := range sums {
		if len(set) != 1 {
			t.Fatalf("%s: %d distinct checksums across identical queries: %v", name, len(set), set)
		}
	}
}

// TestMultiGraphRouting registers two graphs on one SAFS instance and
// checks Request.Graph routes queries to the right one.
func TestMultiGraphRouting(t *testing.T) {
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})

	build := func(scale, epv int, seed uint64, name string) *core.Shared {
		a := graph.FromEdges(1<<scale, gen.RMAT(scale, epv, seed), true)
		a.Dedup()
		img := graph.BuildImage(a, 0, nil)
		sh, err := core.NewShared(img, core.Config{Threads: 2, FS: fs, RangeShift: 3, GraphName: name})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	small := build(6, 4, 1, "small")
	big := build(8, 6, 2, "big")

	srv := New(small, Config{DefaultGraph: "small"})
	defer srv.Close()
	if err := srv.AddGraph("big", big); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("big", big); !errors.Is(err, ErrDuplicateGraph) {
		t.Fatalf("duplicate AddGraph: %v, want ErrDuplicateGraph", err)
	}
	if err := srv.AddGraph("", big); err == nil {
		t.Fatal("empty graph name accepted")
	}

	infos := srv.Graphs()
	if len(infos) != 2 || infos[0].Name != "small" || !infos[0].Default || infos[1].Name != "big" {
		t.Fatalf("graphs = %+v", infos)
	}

	// The same wcc query against each graph must report each graph's own
	// vertex count — proof of routing.
	for _, tc := range []struct {
		graph string
		wantN int
	}{{"", 1 << 6}, {"small", 1 << 6}, {"big", 1 << 8}} {
		id, err := srv.Submit(Request{Graph: tc.graph, Algo: "wcc"})
		if err != nil {
			t.Fatal(err)
		}
		if q, err := srv.Wait(id); err != nil || q.State != StateDone {
			t.Fatalf("graph %q: %v %v", tc.graph, q.State, err)
		}
		rs, err := srv.ResultSet(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := rs.Vectors()[0].Len(); n != tc.wantN {
			t.Fatalf("graph %q: component vector length %d, want %d", tc.graph, n, tc.wantN)
		}
	}

	if _, err := srv.Submit(Request{Graph: "nope", Algo: "bfs"}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v, want ErrUnknownGraph", err)
	}
}

func TestRequestValidation(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{})
	defer srv.Close()

	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"future version", Request{Version: 2, Algo: "bfs"}},
		{"missing algo", Request{}},
		{"negative iters", Request{Algo: "pagerank", Params: MarshalParams(PageRankParams{Iters: -5})}},
		{"unknown param", Request{Algo: "pagerank", Params: json.RawMessage(`{"bogus":1}`)}},
	} {
		if _, err := srv.Submit(tc.req); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

// TestResultBudgetEvictsOldestFirst bounds retained result memory by
// bytes: with a budget that fits only one BFS result, earlier results
// are released (summary survives, vectors gone) while the newest stays
// queryable — the store's LRU is oldest-first when nothing is hit
// again.
func TestResultBudgetEvictsOldestFirst(t *testing.T) {
	shared := buildShared(t, 2)
	// One BFS result: 512 int32 levels = 2KiB + 256 slack.
	srv := New(shared, Config{MaxConcurrent: 1, ResultBytes: 3 << 10})
	defer srv.Close()

	var ids []int64
	for i := 0; i < 3; i++ {
		ids = append(ids, runBFS(t, srv, i, ""))
	}

	if _, err := srv.ResultSet(ids[0]); !errors.Is(err, ErrResultReleased) {
		t.Fatalf("oldest result: %v, want ErrResultReleased", err)
	}
	if _, err := srv.TopK(ids[0], "", 5, 0); !errors.Is(err, ErrResultReleased) {
		t.Fatalf("topk on released result: %v, want ErrResultReleased", err)
	}
	if _, err := srv.ResultSet(ids[2]); err != nil {
		t.Fatalf("newest result must stay queryable: %v", err)
	}
	// The released query's summary survives.
	q, ok := srv.Get(ids[0])
	if !ok || q.Result["checksum"] == nil || q.ResultRetained {
		t.Fatalf("released query summary = %+v (retained=%v)", q.Result, q.ResultRetained)
	}
	st := srv.Stats()
	if st.RetainedBytes <= 0 || st.RetainedBytes > 3<<10 {
		t.Fatalf("retained bytes %d outside (0, budget]", st.RetainedBytes)
	}
	if st.RetainedResults != 1 {
		t.Fatalf("retained results = %d, want 1", st.RetainedResults)
	}

	// Negative budget: retain nothing, ever.
	none := New(shared, Config{MaxConcurrent: 1, ResultBytes: -1})
	defer none.Close()
	id, err := none.Submit(Request{Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := none.Wait(id); err != nil {
		t.Fatal(err)
	}
	if _, err := none.ResultSet(id); !errors.Is(err, ErrResultReleased) {
		t.Fatalf("negative budget: %v, want ErrResultReleased", err)
	}
}

// TestResultBudgetBoundsEveryRecord: the byte budget bounds what is
// REACHABLE, not what one list happens to count. After many run+hit
// pairs under a budget of one result, every record that ever shared a
// result set — the run, its hit — loses it the moment the store evicts
// it, so the distinct result sets reachable through any retained ID
// fit the budget, and Stats reports exactly those bytes.
func TestResultBudgetBoundsEveryRecord(t *testing.T) {
	shared := buildShared(t, 2)
	const budget = 3 << 10 // one BFS result: 512 int32 levels = 2KiB + 256 slack
	srv := New(shared, Config{MaxConcurrent: 1, ResultBytes: budget})
	defer srv.Close()

	var last [2]int64
	for src := 0; src < 40; src++ {
		for i, want := range []string{"", CacheHit} {
			last[i] = runBFS(t, srv, src, want)
		}
	}

	reachable := map[*result.ResultSet]bool{}
	var total int64
	for _, q := range srv.List() {
		rs, err := srv.ResultSet(q.ID)
		if errors.Is(err, ErrResultReleased) {
			if q.ResultRetained || q.Result["checksum"] == nil {
				t.Fatalf("released query %d: retained=%v summary=%v", q.ID, q.ResultRetained, q.Result)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reachable[rs] {
			reachable[rs] = true
			total += rs.MemoryBytes()
		}
	}
	if total > budget {
		t.Fatalf("%d distinct result sets, %d bytes, reachable through retained IDs under a %d-byte budget",
			len(reachable), total, budget)
	}
	if st := srv.Stats(); st.RetainedBytes != total || st.RetainedResults != len(reachable) || st.ResultCache.Bytes != total {
		t.Fatalf("stats report %d results / %d bytes (cache %d), reachable are %d / %d",
			st.RetainedResults, st.RetainedBytes, st.ResultCache.Bytes, len(reachable), total)
	}
	// The newest result is the one that stayed, for both its records.
	for _, id := range last {
		if _, err := srv.ResultSet(id); err != nil {
			t.Fatalf("newest result lost to query %d: %v", id, err)
		}
	}
}

// runBFS submits bfs from src, waits for it to finish and checks how the
// result was produced (Query.Cache); distinct sources are distinct
// computations, so they never hit or coalesce.
func runBFS(t *testing.T, srv *Server, src int, wantCache string) int64 {
	t.Helper()
	id, err := srv.Submit(Request{Algo: "bfs", Params: MarshalParams(SrcParams{Src: graph.VertexID(src)})})
	if err != nil {
		t.Fatal(err)
	}
	q, err := srv.Wait(id)
	if err != nil || q.State != StateDone || q.Cache != wantCache {
		t.Fatalf("bfs src=%d: %+v, %v; want done with cache %q", src, q, err, wantCache)
	}
	return id
}

// gatedAlg blocks inside the engine run until released, reporting when
// it entered. It activates no vertices, so the run finishes the moment
// Init returns.
type gatedAlg struct {
	entered chan<- *gatedAlg
	release <-chan struct{}
}

func (g *gatedAlg) Init(eng core.ExecutionEngine) {
	g.entered <- g
	<-g.release
}
func (g *gatedAlg) Run(ctx *core.Ctx, v graph.VertexID)                               {}
func (g *gatedAlg) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (g *gatedAlg) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message)    {}

func gatedServer(t *testing.T, cfg Config) (*Server, chan *gatedAlg, chan struct{}) {
	t.Helper()
	edges := gen.RMAT(6, 4, 5)
	a := graph.FromEdges(1<<6, edges, true)
	a.Dedup()
	img := graph.BuildImage(a, 0, nil)
	shared, err := core.NewShared(img, core.Config{Threads: 1, InMemory: true, RangeShift: 2})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan *gatedAlg, 64)
	release := make(chan struct{})
	srv := New(shared, cfg)
	// The test fixture algorithm registers through the same public spec
	// path as everything else — server-locally, so parallel tests and
	// other servers never see it.
	if err := srv.Register(AlgorithmSpec{
		Name: "gate",
		Doc:  "test fixture: blocks inside Init until released",
		New: func(raw json.RawMessage, g GraphMeta) (core.Program, error) {
			return &gatedAlg{entered: entered, release: release}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return srv, entered, release
}

// gateReq is a gate query with params that set it apart from every
// other n: identical gates would coalesce into one run.
func gateReq(n int) Request {
	return Request{Algo: "gate", Params: json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))}
}

func TestAdmissionControlQueueFull(t *testing.T) {
	srv, entered, release := gatedServer(t, Config{MaxConcurrent: 1, MaxQueued: 2})
	defer srv.Close()

	first, err := srv.Submit(gateReq(0))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // first query is now running, holding the only slot

	var queued []int64
	for i := 1; i <= 2; i++ {
		id, err := srv.Submit(gateReq(i))
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, id)
	}
	if _, err := srv.Submit(gateReq(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	st := srv.Stats()
	if st.Queued != 2 || st.Running != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 2 queued / 1 running / 1 rejected", st)
	}

	// Drain after release: everything admitted completes (the entered
	// channel's buffer absorbs the queued queries' signals).
	close(release)
	for _, id := range append([]int64{first}, queued...) {
		q, err := srv.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if q.State != StateDone {
			t.Fatalf("query %d: state = %s (%s)", id, q.State, q.Error)
		}
	}
}

func TestQueriesExecuteSimultaneously(t *testing.T) {
	// ReservedSlots -1: all three slots are open to the (analytic) gates.
	srv, entered, release := gatedServer(t, Config{MaxConcurrent: 3, MaxQueued: 8,
		QoS: qos.Config{ReservedSlots: -1}})
	defer srv.Close()

	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := srv.Submit(gateReq(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// All three must enter their runs while the others are still blocked
	// inside theirs — proof of simultaneous execution on one substrate.
	for i := 0; i < 3; i++ {
		<-entered
	}
	if st := srv.Stats(); st.Running != 3 || st.PeakRunning != 3 {
		t.Fatalf("stats = %+v, want 3 running / peak 3", st)
	}
	close(release)
	for _, id := range ids {
		if q, err := srv.Wait(id); err != nil || q.State != StateDone {
			t.Fatalf("query %d: %v %v", id, q.State, err)
		}
	}
	// Custom algorithms without a ResultProducer still get a uniform
	// (empty) result summary.
	if q, _ := srv.Get(ids[0]); q.Result["algorithm"] != "gate" {
		t.Fatalf("non-producer summary = %v", q.Result)
	}
}

func TestSubmitValidation(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{})
	defer srv.Close()

	if _, err := srv.Submit(Request{Algo: "nope"}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm: %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := srv.Submit(Request{Algo: "bfs", Params: MarshalParams(SrcParams{Src: 1 << 30})}); !errors.Is(err, ErrIncompatibleGraph) {
		t.Fatalf("out-of-range source: %v, want ErrIncompatibleGraph", err)
	}
	if _, err := srv.Submit(Request{Algo: "sssp"}); err == nil {
		t.Fatal("sssp accepted on unweighted image")
	}
	if _, err := srv.Submit(Request{Algo: "kcore"}); err == nil {
		t.Fatal("kcore accepted on directed graph")
	}

	srv.Close()
	if _, err := srv.Submit(Request{Algo: "bfs"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestFailedQueryDoesNotKillSlot(t *testing.T) {
	srv, _, release := gatedServer(t, Config{MaxConcurrent: 1, MaxQueued: 4})
	defer srv.Close()
	if err := srv.Register(AlgorithmSpec{Name: "panic", New: func(raw json.RawMessage, g GraphMeta) (core.Program, error) {
		return &panicAlg{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	close(release)

	id, err := srv.Submit(Request{Algo: "panic"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.State != StateFailed || q.Error == "" {
		t.Fatalf("state = %s, error = %q; want failed with message", q.State, q.Error)
	}
	if _, err := srv.ResultSet(id); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("failed query ResultSet: %v, want ErrNotFinished", err)
	}
	// The slot must survive and serve the next query.
	id2, err := srv.Submit(Request{Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if q2, err := srv.Wait(id2); err != nil || q2.State != StateDone {
		t.Fatalf("follow-up query: %v %v (%s)", q2.State, err, q2.Error)
	}
	st := srv.Stats()
	if st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 failed / 1 completed", st)
	}
}

type panicAlg struct{}

func (p *panicAlg) Init(eng core.ExecutionEngine)                                     { panic("boom") }
func (p *panicAlg) Run(ctx *core.Ctx, v graph.VertexID)                               {}
func (p *panicAlg) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (p *panicAlg) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message)    {}

// workerPanicAlg panics inside a vertex callback, which executes on a
// worker goroutine — the path a deferred recover on the scheduler
// goroutine cannot catch. The engine must contain it and fail the run.
type workerPanicAlg struct{}

func (p *workerPanicAlg) Init(eng core.ExecutionEngine)                                     { eng.ActivateSeed(0) }
func (p *workerPanicAlg) Run(ctx *core.Ctx, v graph.VertexID)                               { panic("vertex boom") }
func (p *workerPanicAlg) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (p *workerPanicAlg) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message)    {}

func TestWorkerGoroutinePanicFailsQueryNotDaemon(t *testing.T) {
	srv, _, release := gatedServer(t, Config{MaxConcurrent: 1, MaxQueued: 4})
	defer srv.Close()
	if err := srv.Register(AlgorithmSpec{Name: "wpanic", New: func(raw json.RawMessage, g GraphMeta) (core.Program, error) {
		return &workerPanicAlg{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	close(release)

	id, err := srv.Submit(Request{Algo: "wpanic"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.State != StateFailed || !strings.Contains(q.Error, "vertex boom") {
		t.Fatalf("state = %s, error = %q; want failed mentioning the panic", q.State, q.Error)
	}
	// The scheduler slot and substrate must survive for the next query.
	id2, err := srv.Submit(Request{Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	if q2, err := srv.Wait(id2); err != nil || q2.State != StateDone {
		t.Fatalf("follow-up query: %v %v (%s)", q2.State, err, q2.Error)
	}
}

func TestHistoryEvictionBoundsMemory(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{MaxConcurrent: 1, MaxHistory: 2})
	defer srv.Close()

	var ids []int64
	for i := 0; i < 5; i++ {
		ids = append(ids, runBFS(t, srv, i, ""))
	}
	if got := len(srv.List()); got > 2 {
		t.Fatalf("retained %d finished queries, want <= MaxHistory (2)", got)
	}
	if _, ok := srv.Get(ids[0]); ok {
		t.Fatal("oldest query still retained beyond MaxHistory")
	}
	if q, ok := srv.Get(ids[4]); !ok || q.State != StateDone {
		t.Fatal("newest finished query must be retained")
	}
	// Only records are forgotten: surviving records keep their results
	// under a roomy budget, and a forgotten record's result stays in the
	// store under its key, where the byte budget alone bounds it — the
	// oldest query re-asked is a hit.
	for _, q := range srv.List() {
		if _, err := srv.ResultSet(q.ID); err != nil {
			t.Fatalf("surviving record %d lost its result under a roomy budget: %v", q.ID, err)
		}
	}
	if st := srv.Stats(); st.RetainedResults != 5 || st.RetainedBytes > st.ResultCache.Budget {
		t.Fatalf("store holds %d results / %d bytes after history eviction, want all 5 within the %d-byte budget",
			st.RetainedResults, st.RetainedBytes, st.ResultCache.Budget)
	}
	runBFS(t, srv, 0, CacheHit)
}
