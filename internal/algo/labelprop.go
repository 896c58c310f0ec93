package algo

import (
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// LabelProp is synchronous label propagation for community detection:
// every vertex starts in its own community, pushes its label to its
// out-neighbors each iteration, and adopts the most frequent label it
// received. Propagation stops when an iteration changes no label or the
// Iters cap (default 10 — label propagation rarely needs more) is hit.
//
// Label selection is deterministic and order-independent: the winner is
// the label with the highest vote count, smallest label breaking count
// ties — except that a vertex keeps its current label whenever that
// label's count matches the maximum (the "sticky" rule that damps label
// oscillation on bipartite-ish structures). Votes are tallied in
// per-vertex count maps, so the result depends only on the vote
// multiset, never on delivery order.
//
// LabelProp has two executable forms behind one algorithm name: a
// vertex program (votes as messages, modes resolved in the iteration
// hook) and a dense sweep (core.SpMVProgram — votes tallied straight
// from the streamed out-edge lists). Both tally identical vote
// multisets and resolve identically, so Labels converge identically on
// either engine.
type LabelProp struct {
	// Iters caps iterations (default 10).
	Iters int
	// Labels[v] is v's community label after Run.
	Labels []graph.VertexID

	counts    []map[graph.VertexID]int32
	propagate bool // dense form: last resolution changed a label
}

// NewLabelProp returns a LabelProp program with the default cap.
func NewLabelProp() *LabelProp { return &LabelProp{Iters: 10} }

// MaxIterations implements core.IterationLimiter.
func (l *LabelProp) MaxIterations() int { return l.Iters }

// Init implements core.Program for both forms.
func (l *LabelProp) Init(eng core.ExecutionEngine) {
	n := eng.NumVertices()
	l.Labels = make([]graph.VertexID, n)
	for v := range l.Labels {
		l.Labels[v] = graph.VertexID(v)
	}
	l.counts = make([]map[graph.VertexID]int32, n)
	l.propagate = true
	eng.ActivateAllSeeds()
}

// vote tallies one incoming label for v.
func (l *LabelProp) vote(v, lab graph.VertexID) {
	m := l.counts[v]
	if m == nil {
		m = make(map[graph.VertexID]int32)
		l.counts[v] = m
	}
	m[lab]++
}

// resolveAll applies the synchronous update: every vertex with votes
// adopts the winning label (count desc, label asc, sticky on current).
// It consumes the tallies and reports whether any label changed.
func (l *LabelProp) resolveAll() bool {
	changed := false
	for v := range l.Labels {
		m := l.counts[v]
		if len(m) == 0 {
			continue
		}
		cur := l.Labels[v]
		bestLab, bestCnt := graph.VertexID(0), int32(-1)
		for lab, cnt := range m {
			if cnt > bestCnt || (cnt == bestCnt && lab < bestLab) {
				bestLab, bestCnt = lab, cnt
			}
		}
		if m[cur] == bestCnt {
			bestLab = cur // sticky: a tie never dislodges the current label
		}
		l.counts[v] = nil
		if bestLab != cur {
			l.Labels[v] = bestLab
			changed = true
		}
	}
	return changed
}

// Run implements core.Algorithm: every vertex with out-edges broadcasts
// each iteration (synchronous propagation — even unchanged vertices'
// votes count).
func (l *LabelProp) Run(ctx *core.Ctx, v graph.VertexID) {
	if ctx.OutDegree(v) > 0 {
		ctx.RequestSelf(graph.OutEdges)
	}
}

// RunOnVertex implements core.Algorithm: multicast the current label.
func (l *LabelProp) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if pv.NumEdges() == 0 {
		return
	}
	ctx.Multicast(ctx.Neighbors(pv), core.Message{I64: int64(l.Labels[v])})
}

// RunOnMessage implements core.Algorithm: tally the vote. Labels are
// only read during the run phase and only written in the iteration
// hook, so the update is synchronous.
func (l *LabelProp) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	l.vote(v, graph.VertexID(msg.I64))
}

// OnIterationEnd implements core.IterationHook: resolve the synchronous
// update and keep everyone broadcasting while labels still move.
func (l *LabelProp) OnIterationEnd(eng *core.Engine) {
	if l.resolveAll() {
		eng.ActivateAllSeeds()
	}
}

// BeginIteration implements core.SpMVProgram.
func (l *LabelProp) BeginIteration(eng core.ExecutionEngine, iter int) []graph.EdgeDir {
	if !l.propagate {
		return nil
	}
	return []graph.EdgeDir{graph.OutEdges}
}

// ApplyRow implements core.SpMVProgram: row votes for each out-neighbor.
// Labels are only written in EndIteration, so a row split across edge
// blocks votes with the same label in every block.
func (l *LabelProp) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	lab := l.Labels[row]
	for _, c := range cols {
		l.vote(c, lab)
	}
}

// EndIteration implements core.SpMVProgram: the dense mirror of the
// iteration hook.
func (l *LabelProp) EndIteration(eng core.ExecutionEngine, iter int) bool {
	l.propagate = l.resolveAll()
	return !l.propagate
}

// StateBytes implements core.StateSized: labels plus a rough estimate
// of the tally maps (most vertices see a handful of distinct labels).
func (l *LabelProp) StateBytes() int64 { return int64(len(l.Labels)) * 36 }

// NumCommunities counts distinct labels after Run.
func (l *LabelProp) NumCommunities() int {
	seen := make(map[graph.VertexID]struct{})
	for _, lab := range l.Labels {
		seen[lab] = struct{}{}
	}
	return len(seen)
}

// Result implements core.ResultProducer: the per-vertex "label" vector
// plus the community count.
func (l *LabelProp) Result() *result.ResultSet {
	rs := result.New("labelprop")
	rs.AddScalar("communities", l.NumCommunities())
	rs.AddUint32("label", l.Labels)
	return rs
}
