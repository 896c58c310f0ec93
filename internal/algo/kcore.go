package algo

import (
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// KCore marks the k-core of an undirected graph by iterative peeling: a
// vertex whose remaining degree drops below K dies and multicasts a
// decrement to its neighbors, which may die in the next iteration. This
// is one of the paper's "wide variety of graph algorithms" the
// vertex-centric interface targets; it exercises repeated selective
// I/O — only dying vertices read their edge lists.
//
// The graph must be undirected and deduplicated (Adjacency.Dedup).
type KCore struct {
	// K is the core number threshold.
	K int
	// Alive[v] reports membership in the k-core after Run.
	Alive []bool

	deg []int32
}

// NewKCore returns a k-core program for threshold k.
func NewKCore(k int) *KCore { return &KCore{K: k} }

// Init implements core.Algorithm.
func (kc *KCore) Init(eng core.ExecutionEngine) {
	if eng.Directed() {
		panic("algo: KCore requires an undirected graph")
	}
	n := eng.NumVertices()
	kc.Alive = make([]bool, n)
	kc.deg = make([]int32, n)
	for v := 0; v < n; v++ {
		kc.Alive[v] = true
		kc.deg[v] = int32(eng.OutDegree(graph.VertexID(v)))
	}
	eng.ActivateAllSeeds()
}

// Run implements core.Algorithm: vertices below the threshold die and
// fetch their edge list to notify neighbors.
func (kc *KCore) Run(ctx *core.Ctx, v graph.VertexID) {
	if !kc.Alive[v] || int(kc.deg[v]) >= kc.K {
		return
	}
	kc.Alive[v] = false
	if kc.deg[v] > 0 {
		ctx.RequestSelf(graph.OutEdges)
	}
}

// RunOnVertex implements core.Algorithm: multicast the decrement.
func (kc *KCore) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	ctx.Multicast(ctx.Neighbors(pv), core.Message{})
}

// RunOnMessage implements core.Algorithm: survivors lose a degree and
// re-examine themselves next iteration if they fell below K. k-core
// stays off core.SumReceiver: only dying vertices send, and a long peel
// runs hundreds of iterations that would each fold and scan every
// worker's NumV-long sum array.
func (kc *KCore) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	if !kc.Alive[v] {
		return
	}
	kc.deg[v]--
	if int(kc.deg[v]) < kc.K {
		ctx.Activate(v)
	}
}

// StateBytes implements core.StateSized.
func (kc *KCore) StateBytes() int64 { return int64(len(kc.Alive)) * 5 }

// CoreSize returns the number of k-core members.
func (kc *KCore) CoreSize() int {
	n := 0
	for _, a := range kc.Alive {
		if a {
			n++
		}
	}
	return n
}

// Result implements core.ResultProducer: the per-vertex "in_core"
// membership vector (1 = in the k-core) plus k and the core size.
func (kc *KCore) Result() *result.ResultSet {
	rs := result.New("kcore")
	rs.AddScalar("k", kc.K)
	rs.AddScalar("core_size", kc.CoreSize())
	rs.AddBool("in_core", kc.Alive)
	return rs
}
