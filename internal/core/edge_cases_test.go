package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// TestBatchReceiverCannotSend: RunOnSums takes a range of sums and has
// no current vertex to stamp msg.From with, so a call that acts on the
// current vertex's behalf fails the run instead of sending from the
// wrong vertex.
func TestBatchReceiverCannotSend(t *testing.T) {
	img, _ := buildTestImage(t, 6, 4, 8)
	for name, misuse := range map[string]func(*Ctx, graph.VertexID){
		"Send":               func(ctx *Ctx, v graph.VertexID) { ctx.Send(v, Message{I64: 1}) },
		"Multicast":          func(ctx *Ctx, v graph.VertexID) { ctx.Multicast([]graph.VertexID{v}, Message{I64: 1}) },
		"NotifyIterationEnd": func(ctx *Ctx, _ graph.VertexID) { ctx.NotifyIterationEnd() },
	} {
		t.Run(name, func(t *testing.T) {
			_, err := memEngine(t, img, nil).Run(&sumForwarder{misuse: misuse})
			if err == nil || !strings.Contains(err.Error(), "from RunOnSums") {
				t.Fatalf("err = %v, want the run to fail on %s from RunOnSums", err, name)
			}
		})
	}
}

// sumForwarder sends one message from vertex 0 and misuses the Ctx
// inside the RunOnSums call that delivers it.
type sumForwarder struct {
	misuse func(*Ctx, graph.VertexID)
}

func (b *sumForwarder) Init(eng ExecutionEngine)                                     { eng.ActivateSeed(0) }
func (b *sumForwarder) Run(ctx *Ctx, v graph.VertexID)                               { ctx.Send(1, Message{I64: 1}) }
func (b *sumForwarder) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (b *sumForwarder) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)         {}
func (b *sumForwarder) RunOnSums(ctx *Ctx, first graph.VertexID, sums []int64) {
	for i, sum := range sums {
		if sum != 0 {
			b.misuse(ctx, first+graph.VertexID(i))
		}
	}
}

// sumEcho is a SumReceiver whose RunOnMessage does the same, so hiding
// the interface changes the path and nothing else: every active vertex
// sends v+1 to v+1 (mod n), and its RunOnIterationEnd sends 1000 to
// itself — sums that wait in the array past the message phase, for the
// next iteration's. total[v] is what v received; a nonzero sum
// activates. cancel, if set, runs from vertex 0 in iteration 1.
type sumEcho struct {
	total  []int64
	cancel func()
}

func (p *sumEcho) Init(eng ExecutionEngine) {
	p.total = make([]int64, eng.NumVertices())
	eng.ActivateAllSeeds()
}
func (p *sumEcho) MaxIterations() int { return 4 }
func (p *sumEcho) Run(ctx *Ctx, v graph.VertexID) {
	if p.cancel != nil && ctx.Iteration() == 1 && v == 0 {
		p.cancel()
	}
	ctx.Send((v+1)%graph.VertexID(ctx.NumVertices()), Message{I64: int64(v) + 1})
	ctx.NotifyIterationEnd()
}
func (p *sumEcho) RunOnVertex(*Ctx, graph.VertexID, *graph.PageVertex) {}
func (p *sumEcho) RunOnIterationEnd(ctx *Ctx, v graph.VertexID)        { ctx.Send(v, Message{I64: 1000}) }
func (p *sumEcho) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {
	p.total[v] += msg.I64
	ctx.Activate(v)
}
func (p *sumEcho) RunOnSums(ctx *Ctx, first graph.VertexID, sums []int64) {
	for i, sum := range sums {
		if sum != 0 {
			p.total[first+graph.VertexID(i)] += sum
			ctx.Activate(first + graph.VertexID(i))
		}
	}
}

// hiddenSums exposes sumEcho without SumReceiver.
type hiddenSums struct {
	Algorithm
	IterationEnder
	IterationLimiter
}

// TestSumsFreshAfterCancelledRun: a SumReceiver run cancelled in the
// middle of an iteration stops at the next boundary with what
// RunOnIterationEnd sent still in the sum array; a fresh Run on the same
// Engine must not see it, and gives the reference answer.
func TestSumsFreshAfterCancelledRun(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 9)
	for _, sem := range []bool{false, true} {
		t.Run(fmt.Sprintf("sem=%v", sem), func(t *testing.T) {
			engine := func() *Engine {
				if sem {
					return semEngine(t, img, nil)
				}
				return memEngine(t, img, nil)
			}
			ref := &sumEcho{}
			if _, err := engine().Run(ref); err != nil {
				t.Fatal(err)
			}
			eng := engine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng.SetContext(ctx)
			if _, err := eng.Run(&sumEcho{cancel: cancel}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			if !slices.ContainsFunc(eng.workers, func(w *worker) bool {
				return slices.ContainsFunc(w.sums, func(s int64) bool { return s != 0 })
			}) {
				t.Fatal("the cancelled run left no sums behind: the case tests nothing")
			}
			eng.SetContext(nil)
			got := &sumEcho{}
			st, err := eng.Run(got)
			if err != nil {
				t.Fatal(err)
			}
			if st.Iterations != 4 {
				t.Fatalf("rerun after a cancelled run: %d iterations, want 4", st.Iterations)
			}
			if !slices.Equal(got.total, ref.total) {
				t.Fatal("rerun after a cancelled run: totals differ from a fresh engine's")
			}
		})
	}
}

// TestSumArrayCounted: RunStats.MemoryBytes counts the per-worker sum
// arrays, so a SumReceiver's footprint exceeds the same program's behind
// a wrapper that hides the interface by exactly 8·Threads bytes a vertex
// — and the two paths agree on every total and on the message count.
func TestSumArrayCounted(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 9)
	const threads = 3
	for _, sem := range []bool{false, true} {
		t.Run(fmt.Sprintf("sem=%v", sem), func(t *testing.T) {
			run := func(alg Algorithm) RunStats {
				mutate := func(c *Config) { c.Threads = threads }
				eng := memEngine(t, img, mutate)
				if sem {
					eng = semEngine(t, img, mutate)
				}
				st, err := eng.Run(alg)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			summed, hidden := &sumEcho{}, &sumEcho{}
			sst := run(summed)
			hst := run(hiddenSums{hidden, hidden, hidden})
			if d := sst.MemoryBytes - hst.MemoryBytes; d != 8*threads*int64(img.NumV) {
				t.Fatalf("MemoryBytes %d with sums, %d without: differ by %d, want 8·%d·%d", sst.MemoryBytes, hst.MemoryBytes, d, threads, img.NumV)
			}
			if sst.Messages != hst.Messages {
				t.Fatalf("sum path sent %d messages, per-message path %d", sst.Messages, hst.Messages)
			}
			if !slices.Equal(summed.total, hidden.total) {
				t.Fatal("the sum path's totals differ from the per-message path's")
			}
		})
	}
}

// fixedState is selfMulticast reporting a fixed state size, so the rest
// of its footprint is the engine's own.
type fixedState struct{ selfMulticast }

func (fixedState) StateBytes() int64 { return 12345 }

// TestMemoryBytesExact: an in-memory run's MemoryBytes is exactly index
// + program state + edge data + the vertex engine's own per-vertex
// arrays — 4 B of pending-request count and the two frontier bitmaps.
func TestMemoryBytesExact(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 9)
	st, err := memEngine(t, img, nil).Run(&fixedState{selfMulticast{iters: 1}})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(img.NumV)
	want := img.IndexMemory() + 12345 + img.DataSize() + 4*n + 2*8*((n+63)/64)
	if st.MemoryBytes != want {
		t.Fatalf("MemoryBytes = %d, want index %d + state 12345 + data %d + engine arrays %d = %d",
			st.MemoryBytes, img.IndexMemory(), img.DataSize(), 4*n+2*8*((n+63)/64), want)
	}
}
