// Package algo implements the paper's six applications (§4) as
// FlashGraph vertex programs, plus the extensions (k-core, SSSP,
// undirected BFS) used by the examples:
//
//   - BFS: frontier traversal over out-edges (Figure 4's program);
//   - BC: single-source Brandes betweenness centrality — forward BFS
//     counting shortest paths, then level-stepped back propagation;
//   - PageRank: delta-based push [30], 30-iteration cap like Pregel;
//   - WCC: weakly connected components by label propagation [33];
//   - TC: triangle counting with neighborhood intersection and
//     message-passing notification [28];
//   - ScanStat: maximum locality statistic with the degree-descending
//     custom scheduler and early termination [26, 27].
//
// Every program follows the paper's I/O discipline: Run touches only the
// vertex's own state and requests edge lists explicitly; RunOnVertex
// computes against page-cache data; cross-vertex effects go through
// messages or activation.
package algo

import (
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// BFS is breadth-first search from a single source (paper Figure 4).
// Vertex state is one visited byte plus the discovered level.
type BFS struct {
	// Src is the source vertex.
	Src graph.VertexID
	// Undirected expands over both edge directions (diameter sweeps).
	Undirected bool
	// Level[v] is the BFS depth of v, or -1 if unreached.
	Level []int32

	visited []int32
	scratch []decodeScratch
}

// NewBFS returns a BFS program rooted at src using out-edges.
func NewBFS(src graph.VertexID) *BFS { return &BFS{Src: src} }

// Init implements core.Algorithm.
func (b *BFS) Init(eng core.ExecutionEngine) {
	n := eng.NumVertices()
	b.visited = make([]int32, n)
	b.Level = make([]int32, n)
	b.scratch = newScratchPool(eng)
	for i := range b.Level {
		b.Level[i] = -1
	}
	eng.ActivateSeed(b.Src)
}

// Run implements core.Algorithm: unvisited vertices request their own
// edge list; visited ones do nothing (this is why edge lists must be
// requested explicitly — most activations hit visited vertices).
func (b *BFS) Run(ctx *core.Ctx, v graph.VertexID) {
	if !atomic.CompareAndSwapInt32(&b.visited[v], 0, 1) {
		return
	}
	b.Level[v] = int32(ctx.Iteration())
	ctx.RequestSelf(graph.OutEdges)
	if b.Undirected && ctx.Engine().Directed() {
		ctx.RequestSelf(graph.InEdges)
	}
}

// bfsScratchMax bounds (in edges) the decode buffer a worker keeps. BFS
// expands each vertex once per run, so a buffer grown to a hub's degree
// would only sit in the heap until the run ends: the few lists longer
// than this get a buffer of their own, sized exactly and dropped.
const bfsScratchMax = 4096

// RunOnVertex implements core.Algorithm: activate all neighbors. The
// list is decoded once into the worker's scratch — the batch kernel under
// both edge-list encodings — and activated as one batch.
func (b *BFS) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if n := pv.NumEdges(); n > bfsScratchMax {
		ctx.ActivateMany(pv.Edges(make([]graph.VertexID, 0, n), nil))
		return
	}
	ctx.ActivateMany(b.scratch[ctx.WorkerID()].edges(pv))
}

// RunOnMessage implements core.Algorithm (BFS sends no messages).
func (b *BFS) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {}

// StateBytes implements core.StateSized: one level int32 plus one
// visited flag per vertex.
func (b *BFS) StateBytes() int64 { return int64(len(b.Level)) * 8 }

// Reached returns the number of visited vertices.
func (b *BFS) Reached() int64 {
	var n int64
	for i := range b.visited {
		if b.visited[i] != 0 {
			n++
		}
	}
	return n
}

// Result implements core.ResultProducer: the per-vertex "level" vector
// (-1 = unreached, marked sentinel so rankings skip it) plus the
// reached count.
func (b *BFS) Result() *result.ResultSet {
	rs := result.New("bfs")
	rs.AddScalar("reached", b.Reached())
	rs.AddInt32("level", b.Level).WithSentinel(int32(-1))
	return rs
}
