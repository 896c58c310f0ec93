package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
)

func TestSEMRequiresFS(t *testing.T) {
	img, _ := buildTestImage(t, 6, 2, 1)
	if _, err := NewEngine(img, Config{}); err == nil {
		t.Fatal("SEM engine without FS must fail")
	}
}

func TestNoSeedsTerminatesImmediately(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 2)
	eng := memEngine(t, img, nil)
	st, err := eng.Run(&noSeeds{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0", st.Iterations)
	}
}

type noSeeds struct{}

func (n *noSeeds) Init(eng ExecutionEngine)                                     {}
func (n *noSeeds) Run(ctx *Ctx, v graph.VertexID)                               {}
func (n *noSeeds) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (n *noSeeds) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

func TestSingleVertexGraph(t *testing.T) {
	a := graph.FromEdges(1, nil, true)
	img := graph.BuildImage(a, 0, nil)
	eng := memEngine(t, img, nil)
	alg := &testBFS{src: 0}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if alg.level[0] != 0 {
		t.Fatalf("level[0] = %d", alg.level[0])
	}
}

func TestUndirectedGraphEngine(t *testing.T) {
	edges := gen.Ring(64, 10, 3)
	a := graph.FromEdges(64, edges, false)
	a.Dedup()
	img := graph.BuildImage(a, 0, nil)
	eng := semEngine(t, img, nil)
	alg := &sweepAll{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if alg.touched != 64 {
		t.Fatalf("touched %d, want 64", alg.touched)
	}
}

func TestLargeDegreeVertexThroughEngine(t *testing.T) {
	// A star hub with degree > 255 exercises the index's large-vertex
	// hash table through the full SEM read path.
	const n = 1000
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	a := graph.FromEdges(n, edges, true)
	img := graph.BuildImage(a, 0, nil)
	if img.OutIndex.LargeVertices() != 1 {
		t.Fatalf("hub not in large table: %d", img.OutIndex.LargeVertices())
	}
	eng := semEngine(t, img, nil)
	alg := &testBFS{src: 0}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < n; v++ {
		if alg.level[v] != 1 {
			t.Fatalf("level[%d] = %d, want 1", v, alg.level[v])
		}
	}
}

func TestHighThreadCountSmallGraph(t *testing.T) {
	// More threads than occupied partitions must still terminate and be
	// correct.
	img, adj := buildTestImage(t, 6, 4, 5)
	eng := semEngine(t, img, func(c *Config) { c.Threads = 16; c.RangeShift = 2 })
	checkBFS(t, eng, adj)
}

func TestMessageToSelf(t *testing.T) {
	img, _ := buildTestImage(t, 6, 4, 6)
	eng := memEngine(t, img, nil)
	alg := &selfMessenger{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&alg.received) != int64(img.NumV) {
		t.Fatalf("self messages received = %d, want %d", alg.received, img.NumV)
	}
}

type selfMessenger struct{ received int64 }

func (s *selfMessenger) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (s *selfMessenger) Run(ctx *Ctx, v graph.VertexID) {
	if ctx.Iteration() == 0 {
		ctx.Send(v, Message{I64: 1})
	}
}
func (s *selfMessenger) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (s *selfMessenger) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {
	atomic.AddInt64(&s.received, msg.I64)
}

func TestAlternatingSweepDirection(t *testing.T) {
	// With alternation on (default), consecutive full sweeps visit in
	// opposite ID order within a worker.
	img, _ := buildTestImage(t, 8, 4, 7)
	eng := memEngine(t, img, func(c *Config) { c.Threads = 1 })
	alg := &orderRecorder{}
	if _, err := eng.Run(alg); err != nil {
		t.Fatal(err)
	}
	if len(alg.iters) < 2 {
		t.Fatalf("need 2 iterations, got %d", len(alg.iters))
	}
	first, second := alg.iters[0], alg.iters[1]
	if len(first) < 2 || len(second) < 2 {
		t.Fatal("iterations too small to check order")
	}
	ascFirst := first[0] < first[1]
	ascSecond := second[0] < second[1]
	if ascFirst == ascSecond {
		t.Fatal("sweep direction did not alternate")
	}
}

type orderRecorder struct {
	iters [][]graph.VertexID
}

func (o *orderRecorder) Init(eng ExecutionEngine) { eng.ActivateAllSeeds() }
func (o *orderRecorder) Run(ctx *Ctx, v graph.VertexID) {
	it := ctx.Iteration()
	for len(o.iters) <= it {
		o.iters = append(o.iters, nil)
	}
	o.iters[it] = append(o.iters[it], v)
	if it == 0 {
		ctx.Activate(v) // force a second full iteration
	}
}
func (o *orderRecorder) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (o *orderRecorder) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}

// TestBatchReceiverCannotSend: RunOnMessages has no current vertex to
// stamp msg.From with, so a call that acts on the current vertex's behalf
// fails the run instead of sending from the wrong vertex.
func TestBatchReceiverCannotSend(t *testing.T) {
	img, _ := buildTestImage(t, 6, 4, 8)
	for name, misuse := range map[string]func(*Ctx, []graph.VertexID){
		"Send":               func(ctx *Ctx, ts []graph.VertexID) { ctx.Send(ts[0], Message{I64: 1}) },
		"Multicast":          func(ctx *Ctx, ts []graph.VertexID) { ctx.Multicast(ts, Message{I64: 1}) },
		"NotifyIterationEnd": func(ctx *Ctx, _ []graph.VertexID) { ctx.NotifyIterationEnd() },
	} {
		t.Run(name, func(t *testing.T) {
			_, err := memEngine(t, img, nil).Run(&batchForwarder{misuse: misuse})
			if err == nil || !strings.Contains(err.Error(), "from RunOnMessages") {
				t.Fatalf("err = %v, want the run to fail on %s from RunOnMessages", err, name)
			}
		})
	}
}

// batchForwarder sends one message from vertex 0 and misuses the Ctx
// inside the RunOnMessages call that delivers it (only there: unguarded,
// a forward per delivery would never quiesce).
type batchForwarder struct {
	misuse func(*Ctx, []graph.VertexID)
}

func (b *batchForwarder) Init(eng ExecutionEngine)                                     { eng.ActivateSeed(0) }
func (b *batchForwarder) Run(ctx *Ctx, v graph.VertexID)                               { ctx.Send(1, Message{}) }
func (b *batchForwarder) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (b *batchForwarder) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}
func (b *batchForwarder) RunOnMessages(ctx *Ctx, targets []graph.VertexID, msg Message) {
	if msg.I64 == 0 {
		b.misuse(ctx, targets)
	}
}
