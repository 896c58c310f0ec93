package algo

import (
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// PPR is personalized PageRank (random walk with restart): rank mass
// restarts at a single source vertex instead of uniformly, so scores
// measure proximity to Src — the recommendation/similarity workload on
// top of the same delta-push machinery as PageRank. On weighted images
// the walk follows edges with probability proportional to their uint32
// weight (weighted PageRank); on unweighted images it is uniform.
//
// PPR is PageRank's vertex form restarted at Src: it holds a PageRank
// and forwards Run and RunOnMessage to it, so its deltas are the same
// Q16.48 fixed-point shares, summed exactly in any order, and Scores are
// bit-identical at any thread count. Only the weighted split is its own:
// each edge's share differs, so it goes point-to-point with Ctx.Send,
// exercising FlashGraph's edge-attribute streaming. PPR has no SpMV form
// and stays off core.SumReceiver: its frontier spreads out from one
// vertex, and on a long-diameter graph every summed iteration would fold
// and scan each worker's NumV-long sum array for a handful of sends.
type PPR struct {
	// Src is the restart vertex.
	Src graph.VertexID
	// Damping is the walk-continuation probability (default 0.85);
	// 1-Damping is the restart probability.
	Damping float64
	// Threshold is the activation threshold on accumulated delta
	// (default 1e-9; PPR mass is concentrated, so it runs finer than
	// PageRank's 1e-7).
	Threshold float64
	// Iters caps iterations (default 30, like PageRank).
	Iters int
	// Scores[v] is v's personalized rank after Run; scores sum to at
	// most 1 (mass walking off zero-out-degree vertices is dropped).
	Scores []float64

	weighted bool
	pr       PageRank // held, not embedded: embedding would promote the SpMV form
}

// NewPPR returns a personalized PageRank program restarting at src.
func NewPPR(src graph.VertexID) *PPR {
	return &PPR{Src: src, Damping: 0.85, Threshold: 1e-9, Iters: 30}
}

// MaxIterations implements core.IterationLimiter.
func (p *PPR) MaxIterations() int { return p.Iters }

// Init implements core.Algorithm: all restart mass starts at Src.
func (p *PPR) Init(eng core.ExecutionEngine) {
	p.weighted = eng.Weighted()
	n := eng.NumVertices()
	p.Scores = make([]float64, n)
	p.pr = PageRank{Damping: p.Damping, Threshold: p.Threshold, Iters: p.Iters,
		Scores: p.Scores, accumFix: make([]int64, n)}
	//fg:allowfloat one-time conversion of float config (Threshold) into fixed point before any worker runs
	p.pr.thrFix = int64(p.Threshold * prScale)
	//fg:allowfloat one-time conversion of float config (Damping) into the fixed-point restart delta
	p.pr.accumFix[p.Src] = int64((1 - p.Damping) * prScale)
	eng.ActivateSeed(p.Src)
}

// Run implements core.Algorithm (PageRank's).
func (p *PPR) Run(ctx *core.Ctx, v graph.VertexID) { p.pr.Run(ctx, v) }

// RunOnVertex implements core.Algorithm: absorb and send each out-edge
// its weight's part of the damped delta. A list that is unweighted, or
// whose weights are all zero, takes PageRank's uniform multicast.
func (p *PPR) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	var total uint64
	if p.weighted {
		for i := range pv.NumEdges() {
			total += uint64(pv.AttrUint32(i))
		}
	}
	if total == 0 {
		p.pr.RunOnVertex(ctx, v, pv)
		return
	}
	d := p.pr.accumFix[v]
	p.pr.absorb(v, ctx.OutDegree(v))
	//fg:allowfloat per-vertex function of fixed-point d and integer weights: one expression, evaluated in list order on one worker
	scale := p.Damping * float64(d) / float64(total)
	for i, u := range ctx.Neighbors(pv) {
		if w := pv.AttrUint32(i); w != 0 { // zero-weight edges carry no walk probability
			//fg:allowfloat the same per-edge share on every engine and thread count; the sum it feeds is fixed point
			ctx.Send(u, core.Message{I64: int64(scale * float64(w))})
		}
	}
}

// RunOnMessage implements core.Algorithm (PageRank's): one share at a
// time.
func (p *PPR) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	p.pr.RunOnMessage(ctx, v, msg)
}

// StateBytes implements core.StateSized: Scores and the fixed-point
// pending delta.
func (p *PPR) StateBytes() int64 { return p.pr.StateBytes() }

// Result implements core.ResultProducer: the per-vertex "score" vector
// (proximity to Src).
func (p *PPR) Result() *result.ResultSet {
	rs := result.New("ppagerank")
	rs.AddFloat64("score", p.Scores)
	return rs
}
