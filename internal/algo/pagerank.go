package algo

import (
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// prScale is the fixed-point scale for rank deltas: Q16.48. Both
// executable forms accumulate deltas as int64 multiples of 2^-48, so
// addition is exact and commutative — the engines deliver deltas in
// different groupings (summed per target on the vertex engine, per
// message behind a wrapper that hides core.SumReceiver, per edge block
// on the SpMV engine), and integer accumulation makes the results
// bit-identical anyway. 48 fraction bits keep the per-share truncation
// (< 2^-48 ≈ 3.6e-15) far below any useful Threshold, and total rank
// mass (= numVertices) stays well inside the 16 integer bits for any
// graph a 32-bit VertexID addresses.
const prScale = float64(1 << 48)

// PageRank is the paper's delta-based PageRank [30]: an active vertex
// pushes the change (delta) of its rank to its out-neighbors, who
// accumulate deltas and activate themselves when the accumulation
// crosses a threshold. As the computation converges, fewer vertices
// activate per iteration — the property that separates FlashGraph's
// selective I/O from GraphChi/X-Stream's full scans.
//
// PageRank has two executable forms behind one algorithm name: the
// vertex program above (core.Algorithm, message passing) and a dense
// sweep (core.SpMVProgram) that streams the out-edge lists and applies
// the same absorb/push/crossing logic over dense arrays. Both forms run
// the identical fixed-point arithmetic in the identical per-vertex
// order, so Scores — and the ResultSet checksum — are bit-identical
// across engines and on-SSD encodings.
type PageRank struct {
	// Damping is the damping factor (default 0.85).
	Damping float64
	// Threshold is the activation threshold on accumulated delta
	// (default 1e-7; 0 runs full sweeps to the iteration cap).
	Threshold float64
	// Iters caps iterations (default 30, matching Pregel and §4).
	Iters int
	// Scores[v] is v's PageRank after Run.
	Scores []float64

	accumFix []int64 // pending delta, fixed point
	thrFix   int64

	// Dense-sweep state (SpMV form only): the share each row pushes this
	// sweep, and the frontier.
	shareFix           []int64
	active, nextActive []bool
}

// NewPageRank returns a PageRank program with the paper's defaults.
func NewPageRank() *PageRank {
	return &PageRank{Damping: 0.85, Threshold: 1e-7, Iters: 30}
}

// MaxIterations implements core.IterationLimiter.
func (p *PageRank) MaxIterations() int { return p.Iters }

// Init implements core.Program for both forms.
func (p *PageRank) Init(eng core.ExecutionEngine) {
	n := eng.NumVertices()
	p.Scores = make([]float64, n)
	p.accumFix = make([]int64, n)
	//fg:allowfloat one-time conversion of float config (Threshold) into fixed point before any worker runs
	p.thrFix = int64(p.Threshold * prScale)
	//fg:allowfloat one-time conversion of float config (Damping) into the fixed-point initial delta
	baseFix := int64((1 - p.Damping) * prScale)
	for v := range p.accumFix {
		p.accumFix[v] = baseFix
	}
	if eng.Kind() == core.EngineSpMV {
		p.shareFix = make([]int64, n)
		p.active = make([]bool, n)
		p.nextActive = make([]bool, n)
		for v := range p.active {
			p.active[v] = true
		}
	}
	eng.ActivateAllSeeds()
}

// absorb folds v's pending delta into its score and returns the share
// to push along each out-edge (0 = nothing to push). It is the one
// place rank moves from the fixed-point pipeline into Scores, shared
// verbatim by both forms so float rounding is identical.
func (p *PageRank) absorb(v graph.VertexID, outdeg uint32) int64 {
	d := p.accumFix[v]
	if d == 0 {
		return 0
	}
	p.accumFix[v] = 0
	//fg:allowfloat pure per-vertex function of fixed-point state, shared verbatim by both forms — rounding is identical across engines
	p.Scores[v] += float64(d) / prScale
	return p.share(d, outdeg)
}

// share is what a pending delta d pushes along each of outdeg edges (0 =
// nothing to push): the one copy of the expression, which absorb and the
// vertex form's Run both call.
func (p *PageRank) share(d int64, outdeg uint32) int64 {
	if d == 0 || outdeg == 0 {
		return 0
	}
	//fg:allowfloat deterministic per-vertex share computation from fixed-point d; both forms call this exact expression
	return int64(p.Damping * float64(d) / float64(outdeg))
}

// deliver accumulates one incoming share into acc[v] and reports whether
// it crossed the activation threshold thr (deltas are strictly positive,
// so a vertex crosses at most once between absorbs, in any delivery
// order). Callers pass p.accumFix (or a window of it) and p.thrFix,
// loaded once per batch.
func deliver(acc []int64, thr int64, v graph.VertexID, share int64) (crossed bool) {
	was := acc[v] <= thr
	acc[v] += share
	return was && acc[v] > thr
}

// Run implements core.Algorithm: if the accumulated delta has a share
// to push, request the out-edge list and leave absorbing to RunOnVertex;
// otherwise absorb at once.
func (p *PageRank) Run(ctx *core.Ctx, v graph.VertexID) {
	if deg := ctx.OutDegree(v); p.share(p.accumFix[v], deg) == 0 {
		p.absorb(v, deg)
		return
	}
	ctx.RequestSelf(graph.OutEdges)
}

// RunOnVertex implements core.Algorithm: absorb and multicast the share
// to all out-neighbors (the same value goes to every neighbor — the
// paper's motivating multicast case). Only the message phase writes
// accumFix, so absorb sees the delta Run tested and returns its share.
func (p *PageRank) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	share := p.absorb(v, ctx.OutDegree(v))
	ctx.Multicast(ctx.Neighbors(pv), core.Message{I64: share})
}

// RunOnSums implements core.SumReceiver: fold each vertex's summed
// shares into its pending delta and activate those that cross the
// threshold. Shares are ≥ 0 and fixed-point addition is exact, so a sum
// crosses exactly when its shares one by one would have. The range is
// the calling worker's own, so no synchronization is needed.
func (p *PageRank) RunOnSums(ctx *core.Ctx, first graph.VertexID, sums []int64) {
	acc, thr := p.accumFix[first:int(first)+len(sums)], p.thrFix
	for i, share := range sums {
		if share != 0 && deliver(acc, thr, graph.VertexID(i), share) {
			ctx.Activate(first + graph.VertexID(i))
		}
	}
}

// RunOnMessage implements core.Algorithm: one share at a time, for
// callers that hide RunOnSums.
func (p *PageRank) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	if deliver(p.accumFix, p.thrFix, v, msg.I64) {
		ctx.Activate(v)
	}
}

// BeginIteration implements core.SpMVProgram: absorb every active
// vertex's delta — the dense mirror of the run phase — and sweep the
// out-edge lists if anything is left to push.
func (p *PageRank) BeginIteration(eng core.ExecutionEngine, iter int) []graph.EdgeDir {
	pushing := false
	for v := range p.active {
		var share int64
		if p.active[v] {
			p.active[v] = false
			share = p.absorb(graph.VertexID(v), eng.OutDegree(graph.VertexID(v)))
		}
		p.shareFix[v] = share
		pushing = pushing || share != 0
	}
	if !pushing {
		return nil
	}
	return []graph.EdgeDir{graph.OutEdges}
}

// ApplyRow implements core.SpMVProgram: deliver row's share to each
// out-neighbor — the dense mirror of the message phase. A row split
// across edge blocks delivers per block; the share stays readable until
// the next BeginIteration, and integer accumulation keeps the split
// equivalent to one multicast.
func (p *PageRank) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	share := p.shareFix[row]
	if share == 0 {
		return
	}
	acc, thr := p.accumFix, p.thrFix
	for _, c := range cols {
		if deliver(acc, thr, c, share) {
			p.nextActive[c] = true
		}
	}
}

// ColumnLocal implements core.ColumnLocal: ApplyRow writes only
// accumFix and nextActive at its columns, and reads shareFix[row], which
// only BeginIteration writes. Fixed-point sums are order-free, so a
// column-parallel sweep is bit-identical to a serial one.
func (p *PageRank) ColumnLocal() {}

// EndIteration implements core.SpMVProgram: promote the next frontier.
func (p *PageRank) EndIteration(eng core.ExecutionEngine, iter int) bool {
	p.active, p.nextActive = p.nextActive, p.active
	any := false
	for v := range p.nextActive {
		p.nextActive[v] = false
		any = any || p.active[v]
	}
	return !any
}

// StateBytes implements core.StateSized: Scores and accumFix, plus the
// SpMV form's shareFix and frontier.
func (p *PageRank) StateBytes() int64 {
	return int64(len(p.Scores))*16 + int64(len(p.shareFix))*8 + int64(len(p.active))*2
}

// Result implements core.ResultProducer: the per-vertex "score" vector.
func (p *PageRank) Result() *result.ResultSet {
	rs := result.New("pagerank")
	rs.AddFloat64("score", p.Scores)
	return rs
}
