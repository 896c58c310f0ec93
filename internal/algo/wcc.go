package algo

import (
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// WCC computes weakly connected components by label propagation [33]:
// every vertex starts as its own component, broadcasts its component ID
// to all neighbors (both edge directions — weak connectivity ignores
// direction), and adopts the smallest ID it observes. A vertex that
// does not improve stays inactive the next iteration.
//
// WCC also carries a dense form (core.SpMVProgram): sweep the out-edge
// lists and take the min across each edge in both directions, repeating
// until no label changes. One sweep direction suffices for weak
// connectivity because every edge is visited and updates both
// endpoints. Labels only decrease and the fixed point — every vertex
// labeled with its component's smallest ID — is unique, so both engines
// produce identical Labels (and ResultSet checksums) even though their
// iteration traces differ.
type WCC struct {
	// Labels[v] converges to the smallest vertex ID in v's component.
	Labels []graph.VertexID

	improved []bool
	changed  bool // dense form: any label improved this sweep
}

// NewWCC returns a WCC program.
func NewWCC() *WCC { return &WCC{} }

// Init implements core.Program for both forms.
func (w *WCC) Init(eng core.ExecutionEngine) {
	n := eng.NumVertices()
	w.Labels = make([]graph.VertexID, n)
	for v := range w.Labels {
		w.Labels[v] = graph.VertexID(v)
	}
	if eng.Kind() != core.EngineSpMV {
		w.improved = make([]bool, n)
		for v := range w.improved {
			w.improved[v] = true // everyone broadcasts initially
		}
	}
	eng.ActivateAllSeeds()
}

// Run implements core.Algorithm: vertices whose label improved since
// they last broadcast request both edge lists.
func (w *WCC) Run(ctx *core.Ctx, v graph.VertexID) {
	if !w.improved[v] {
		return
	}
	w.improved[v] = false
	ctx.RequestSelf(graph.OutEdges)
	if ctx.Engine().Directed() {
		ctx.RequestSelf(graph.InEdges)
	}
}

// RunOnVertex implements core.Algorithm: multicast the current label to
// the neighbors in this direction.
func (w *WCC) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if pv.NumEdges() == 0 {
		return
	}
	ctx.Multicast(ctx.Neighbors(pv), core.Message{I64: int64(w.Labels[v])})
}

// RunOnMessage implements core.Algorithm: adopt smaller labels and
// activate to re-broadcast.
func (w *WCC) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	if l := graph.VertexID(msg.I64); l < w.Labels[v] {
		w.Labels[v] = l
		if !w.improved[v] {
			w.improved[v] = true
			ctx.Activate(v)
		}
	}
}

// BeginIteration implements core.SpMVProgram: every iteration sweeps
// the out-edge lists until a sweep changes nothing.
func (w *WCC) BeginIteration(eng core.ExecutionEngine, iter int) []graph.EdgeDir {
	w.changed = false
	return []graph.EdgeDir{graph.OutEdges}
}

// ApplyRow implements core.SpMVProgram: bidirectional min across each
// edge — the row accumulates the smallest label seen along its scan and
// pushes improvements back to larger-labeled neighbors.
func (w *WCC) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	lr := w.Labels[row]
	for _, c := range cols {
		if lc := w.Labels[c]; lc < lr {
			lr = lc
			w.changed = true
		} else if lr < lc {
			w.Labels[c] = lr
			w.changed = true
		}
	}
	w.Labels[row] = lr
}

// EndIteration implements core.SpMVProgram.
func (w *WCC) EndIteration(eng core.ExecutionEngine, iter int) bool { return !w.changed }

// StateBytes implements core.StateSized.
func (w *WCC) StateBytes() int64 { return int64(len(w.Labels)) * 5 }

// NumComponents counts distinct labels after Run.
func (w *WCC) NumComponents() int {
	seen := make(map[graph.VertexID]struct{})
	for _, l := range w.Labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// Result implements core.ResultProducer: the per-vertex "component"
// label vector plus the component count.
func (w *WCC) Result() *result.ResultSet {
	rs := result.New("wcc")
	rs.AddScalar("components", w.NumComponents())
	rs.AddUint32("component", w.Labels)
	return rs
}
