package core

import (
	"testing"
	"time"

	"flashgraph/internal/graph"
)

// deltaPush is PageRank's shape on the message path, in fixed point: an
// active vertex pushes its damped pending delta along its out-edges, and
// a receiver accumulates and re-activates once past a threshold.
type deltaPush struct {
	acc, share []int64
	targets    [][]graph.VertexID
}

const deltaPushThr = 1 << 10

func (p *deltaPush) Init(eng ExecutionEngine) {
	n := eng.NumVertices()
	p.acc, p.share = make([]int64, n), make([]int64, n)
	for v := range p.acc {
		p.acc[v] = 1 << 30
	}
	p.targets = make([][]graph.VertexID, eng.Threads())
	eng.ActivateAllSeeds()
}

func (p *deltaPush) Run(ctx *Ctx, v graph.VertexID) {
	d, deg := p.acc[v], int64(ctx.OutDegree(v))
	p.acc[v] = 0
	if deg == 0 {
		return
	}
	if p.share[v] = d * 85 / 100 / deg; p.share[v] > 0 {
		ctx.RequestSelf(graph.OutEdges)
	}
}

func (p *deltaPush) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	w := ctx.WorkerID()
	p.targets[w] = pv.Edges(p.targets[w][:0], nil)
	ctx.Multicast(p.targets[w], Message{I64: p.share[v]})
}

func (p *deltaPush) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) { p.receive(ctx, v, msg.I64) }
func (p *deltaPush) MaxIterations() int                                   { return 30 }

func (p *deltaPush) receive(ctx *Ctx, v graph.VertexID, share int64) {
	was := p.acc[v] <= deltaPushThr
	p.acc[v] += share
	if was && p.acc[v] > deltaPushThr {
		ctx.Activate(v)
	}
}

// deltaPushSum is deltaPush taking its shares summed per target.
type deltaPushSum struct{ deltaPush }

func (p *deltaPushSum) RunOnSums(ctx *Ctx, first graph.VertexID, sums []int64) {
	for i, share := range sums {
		if share != 0 {
			p.receive(ctx, first+graph.VertexID(i), share)
		}
	}
}

// BenchmarkMessageDelivery runs deltaPush on an in-memory R-MAT image at
// 2 threads, delivered per message and summed per target, and reports
// worker time per message (run time × threads / messages, the way the
// benchmark harness prices core.msg_path_ns).
func BenchmarkMessageDelivery(b *testing.B) {
	img, _ := buildTestImage(b, 16, 16, 41)
	const threads = 2
	shared, err := NewShared(img, Config{Threads: threads, InMemory: true, RangeShift: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		alg  func() Algorithm
	}{
		{"per-message", func() Algorithm { return &deltaPush{} }},
		{"sum", func() Algorithm { return &deltaPushSum{} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var elapsed time.Duration
			var msgs int64
			for i := 0; i < b.N; i++ {
				st, err := shared.NewRun().Run(c.alg())
				if err != nil {
					b.Fatal(err)
				}
				elapsed += st.Elapsed
				msgs += st.Messages
			}
			b.ReportMetric(float64(elapsed)*threads/float64(msgs), "ns/msg")
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
