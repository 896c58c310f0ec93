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
// Like SSSP, the weighted push is point-to-point (each neighbor's
// share differs), exercising FlashGraph's edge-attribute streaming;
// the unweighted fallback multicasts one share like PageRank.
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
	delta    []float64
	accum    []float64
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
	p.delta = make([]float64, n)
	p.accum = make([]float64, n)
	//fg:allowfloat PPR is a float algorithm end to end: vertex-engine only, approximate by design, not in the bit-identity contract
	p.accum[p.Src] = 1 - p.Damping
	eng.ActivateSeed(p.Src)
}

// Run implements core.Algorithm: absorb the accumulated delta and push
// it along out-edges if there are any.
func (p *PPR) Run(ctx *core.Ctx, v graph.VertexID) {
	d := p.accum[v]
	if d == 0 {
		return
	}
	p.accum[v] = 0
	//fg:allowfloat float PPR score absorb; vertex-engine only, approximate by design
	p.Scores[v] += d
	if ctx.OutDegree(v) == 0 {
		return
	}
	p.delta[v] = d
	ctx.RequestSelf(graph.OutEdges)
}

// RunOnVertex implements core.Algorithm: distribute the damped delta
// across out-neighbors proportionally to edge weights (uniformly when
// the image is unweighted or all weights are zero).
func (p *PPR) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	d := p.delta[v]
	p.delta[v] = 0
	n := pv.NumEdges()
	if n == 0 || d == 0 {
		return
	}
	if p.weighted {
		var total uint64
		for i := 0; i < n; i++ {
			total += uint64(pv.AttrUint32(i))
		}
		if total > 0 {
			// Delta records decode sequentially, so the list is decoded
			// whole; attribute access stays O(1) per edge.
			edges := ctx.Neighbors(pv)
			//fg:allowfloat weighted-walk share scaling; PPR is float/approximate, not in the bit-identity contract
			scale := p.Damping * d / float64(total)
			for i, u := range edges {
				w := pv.AttrUint32(i)
				if w == 0 {
					continue // zero-weight edges carry no walk probability
				}
				//fg:allowfloat per-edge weighted share; PPR is float/approximate, not in the bit-identity contract
				ctx.Send(u, core.Message{F64: scale * float64(w)})
			}
			return
		}
	}
	//fg:allowfloat uniform share fallback; PPR is float/approximate, not in the bit-identity contract
	share := p.Damping * d / float64(n)
	ctx.Multicast(ctx.Neighbors(pv), core.Message{F64: share})
}

// RunOnMessage implements core.Algorithm: accumulate and activate when
// the delta crosses the threshold (same scheme as PageRank).
func (p *PPR) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	wasBelow := p.accum[v] <= p.Threshold && p.accum[v] >= -p.Threshold
	//fg:allowfloat float delta accumulation; PPR is approximate by design and vertex-engine only
	p.accum[v] += msg.F64
	if wasBelow && (p.accum[v] > p.Threshold || p.accum[v] < -p.Threshold) {
		ctx.Activate(v)
	}
}

// StateBytes implements core.StateSized.
func (p *PPR) StateBytes() int64 { return int64(len(p.Scores)) * 24 }

// Result implements core.ResultProducer: the per-vertex "score" vector
// (proximity to Src).
func (p *PPR) Result() *result.ResultSet {
	rs := result.New("ppagerank")
	rs.AddFloat64("score", p.Scores)
	return rs
}
