package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"flashgraph/internal/graph"
)

// foldProbe is a SumReceiver in which every worker adds into every
// vertex's sum: each active vertex multicasts (v+1)·(it+1) to all
// vertices from Run and sends 1<<32 to each out-neighbour from
// RunOnVertex. Worker 0 holds its first vertex of each iteration until
// another worker has run one of its vertices, so every iteration at two
// or more threads also sends from stolen vertices. got[it][v] is the sum
// RunOnSums handed v in iteration it.
type foldProbe struct {
	iters  int
	all    []graph.VertexID
	got    [][]int64
	stolen []atomic.Int64 // per iteration: vertices run off their owner
	waited []bool         // per iteration, written by worker 0 only
}

func (p *foldProbe) Init(eng ExecutionEngine) {
	n := eng.NumVertices()
	p.all = make([]graph.VertexID, n)
	for v := range p.all {
		p.all[v] = graph.VertexID(v)
	}
	p.got = make([][]int64, p.iters)
	for it := range p.got {
		p.got[it] = make([]int64, n)
	}
	p.stolen = make([]atomic.Int64, p.iters)
	p.waited = make([]bool, p.iters)
	eng.ActivateAllSeeds()
}

func (p *foldProbe) Run(ctx *Ctx, v graph.VertexID) {
	e, it := ctx.Engine(), ctx.Iteration()
	owner := e.shared.part.of(v)
	if ctx.WorkerID() != owner {
		p.stolen[it].Add(1)
	} else if owner == 0 && e.cfg.Threads > 1 && !p.waited[it] {
		p.waited[it] = true
		for deadline := time.Now().Add(5 * time.Second); p.stolen[it].Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	ctx.Multicast(p.all, Message{I64: int64(v+1) * int64(it+1)})
	ctx.RequestSelf(graph.OutEdges)
}

func (p *foldProbe) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	for _, t := range pv.Edges(nil, nil) {
		ctx.Send(t, Message{I64: 1 << 32})
	}
}

func (p *foldProbe) RunOnMessage(*Ctx, graph.VertexID, Message) {
	panic("foldProbe is a SumReceiver: RunOnMessage is never called")
}

func (p *foldProbe) RunOnSums(ctx *Ctx, first graph.VertexID, sums []int64) {
	copy(p.got[ctx.Iteration()][first:], sums)
}

func (p *foldProbe) MaxIterations() int         { return p.iters }
func (p *foldProbe) OnIterationEnd(eng *Engine) { eng.ActivateAllSeeds() }

// TestSumFoldMatchesOracle: with every worker adding into every vertex's
// sum, stolen vertices included, the owners' fold hands each vertex
// exactly its oracle sum in every iteration — none of another worker's
// adds lost, none carried into the next iteration — at 1, 3 and 8
// threads, in memory and semi-external.
func TestSumFoldMatchesOracle(t *testing.T) {
	img, adj := buildTestImage(t, 10, 4, 17)
	n := int64(img.NumV)
	const iters = 3
	for _, threads := range []int{1, 3, 8} {
		for _, sem := range []bool{false, true} {
			t.Run(fmt.Sprintf("threads%d/sem=%v", threads, sem), func(t *testing.T) {
				mutate := func(c *Config) { c.Threads = threads }
				eng := memEngine(t, img, mutate)
				if sem {
					eng = semEngine(t, img, mutate)
				}
				p := &foldProbe{iters: iters}
				st, err := eng.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				if st.Iterations != iters {
					t.Fatalf("%d iterations, want %d", st.Iterations, iters)
				}
				for it := range iters {
					want := make([]int64, n)
					for v := range want {
						want[v] = int64(it+1) * n * (n + 1) / 2
					}
					for _, out := range adj.Out {
						for _, t := range out {
							want[t] += 1 << 32
						}
					}
					for v := range want {
						if p.got[it][v] != want[v] {
							t.Fatalf("iteration %d: vertex %d summed %d, want %d", it, v, p.got[it][v], want[v])
						}
					}
					if stolen := p.stolen[it].Load(); threads > 1 && stolen == 0 {
						t.Fatalf("iteration %d: no vertex ran off its owner: the case tests no stolen senders", it)
					}
				}
				t.Logf("stolen per iteration: %d %d %d", p.stolen[0].Load(), p.stolen[1].Load(), p.stolen[2].Load())
			})
		}
	}
}
