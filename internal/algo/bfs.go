// Package algo implements the paper's six applications (§4) as
// FlashGraph vertex programs, plus the extensions (k-core, SSSP,
// undirected BFS) used by the examples:
//
//   - BFS: frontier traversal (Figure 4's program) that reads, level by
//     level, whichever of the frontier's out-lists and the unvisited
//     vertices' in-lists is fewer bytes on the SSDs;
//   - BC: single-source Brandes betweenness centrality — forward BFS
//     counting shortest paths, then a level-stepped back propagation
//     that pulls over the same out-lists;
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
	"math/bits"
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// BFS is breadth-first search from a single source (paper Figure 4),
// direction-optimizing in bytes. Level d+1 is read one of two ways:
//
//   - top-down: each frontier vertex (level d) reads its out-list and
//     claims its unvisited neighbours;
//   - bottom-up: each unvisited vertex with in-edges reads its in-list
//     and joins if any in-neighbour is at level d.
//
// Selective access (§3.6) lets a vertex ask for exactly one direction,
// so the choice changes which lists reach the SSDs. Between levels one
// vertex's end-of-iteration notification picks the direction whose
// lists are fewer on-SSD record bytes: Σ out-records of the next
// frontier against Σ in-records of the unvisited vertices that have
// in-edges, the ones a bottom-up level reads. Both sums are kept as
// vertices are claimed, so the choice is exact and has no knob. Either
// way a vertex gets the level it has in top-down BFS, so results do not
// depend on the choice.
type BFS struct {
	// Src is the source vertex.
	Src graph.VertexID
	// Undirected expands over both edge directions (diameter sweeps). On a
	// directed image every level then reads both lists and stays
	// top-down; an undirected image's one list serves both directions.
	Undirected bool
	// Level[v] is the BFS depth of v, or -1 if unreached.
	Level []int32

	tally []bfsTally
	// outIx and inIx size the records the planner compares; inIx is nil
	// when the run never reads bottom-up. inDir is the list a bottom-up
	// vertex reads (its own on an undirected image).
	outIx, inIx *graph.Index
	inDir       graph.EdgeDir
	// unseen has bit v set while v has in-edges and was unvisited when
	// the planner last walked it: a superset of what a bottom-up level
	// reads. unseenIn is the exact Σ of those vertices' in-records.
	unseen   []uint64
	unseenIn int64
	bottomUp bool  // the running level reads bottom-up
	planned  int32 // levels whose planner has been claimed
}

// bfsTally is one worker's record bytes of the vertices it claimed this
// level, padded to a cache line: out-records (the next frontier's
// top-down read) and in-records (what bottom-up no longer reads).
type bfsTally struct {
	out, in int64
	_       [48]byte
}

// NewBFS returns a BFS program rooted at src using out-edges.
func NewBFS(src graph.VertexID) *BFS { return &BFS{Src: src} }

// Init implements core.Algorithm.
func (b *BFS) Init(eng core.ExecutionEngine) {
	img := eng.Image()
	b.Level = make([]int32, eng.NumVertices())
	for i := range b.Level {
		b.Level[i] = -1
	}
	b.tally = make([]bfsTally, eng.Threads())
	b.outIx, b.inIx, b.inDir = img.OutIndex, img.InIndex, graph.InEdges
	if !img.Directed {
		b.inIx, b.inDir = img.OutIndex, graph.OutEdges
	} else if b.Undirected {
		b.inIx = nil
	}
	b.bottomUp, b.unseen = false, nil
	atomic.StoreInt32(&b.planned, 0)
	if b.inIx != nil {
		// Every vertex but the source is claimed through an in-edge, so
		// claimed subtracts without asking for the degree.
		b.unseen = make([]uint64, (len(b.Level)+63)/64)
		b.unseenIn = b.inIx.FileSize()
		for v := range b.Level {
			if u := graph.VertexID(v); u != b.Src && b.inIx.Degree(u) > 0 {
				b.unseen[v>>6] |= 1 << (v & 63)
			} else {
				b.unseenIn -= b.inIx.RecordBytes(u)
			}
		}
	}
	b.Level[b.Src] = 0
	eng.ActivateSeed(b.Src)
}

// Run implements core.Algorithm. Top-down, every active vertex is on the
// frontier and reads its out-list. Bottom-up, the frontier is active too
// (so either direction can follow) but reads nothing; the unvisited
// vertices the planner activated read their in-lists. The first vertex
// to run in a level asks for the planner's notification.
func (b *BFS) Run(ctx *core.Ctx, v graph.VertexID) {
	d := int32(ctx.Iteration())
	if b.inIx != nil && atomic.LoadInt32(&b.planned) == d && atomic.CompareAndSwapInt32(&b.planned, d, d+1) {
		ctx.NotifyIterationEnd()
	}
	if b.bottomUp {
		if b.Level[v] < 0 {
			ctx.RequestSelf(b.inDir)
		}
		return
	}
	ctx.RequestSelf(graph.OutEdges)
	if b.Undirected && ctx.Engine().Directed() {
		ctx.RequestSelf(graph.InEdges)
	}
}

// RunOnVertex implements core.Algorithm. Top-down, v's list is decoded
// once (ctx.Neighbors) and every unvisited neighbour is claimed.
// Bottom-up, v's in-list is walked until an in-neighbour on the frontier
// is found; Level is read atomically because joining vertices write
// theirs during the same level.
func (b *BFS) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	d := int32(ctx.Iteration())
	if b.bottomUp {
		for i, n := 0, pv.NumEdges(); i < n; i++ {
			if atomic.LoadInt32(&b.Level[pv.Edge(i)]) == d {
				atomic.StoreInt32(&b.Level[v], d+1)
				b.claimed(ctx, v)
				return
			}
		}
		return
	}
	for _, u := range ctx.Neighbors(pv) {
		if atomic.LoadInt32(&b.Level[u]) < 0 && atomic.CompareAndSwapInt32(&b.Level[u], -1, d+1) {
			b.claimed(ctx, u)
		}
	}
}

// claimed activates u, just given the next level, and charges its
// records to the worker's tally.
func (b *BFS) claimed(ctx *core.Ctx, u graph.VertexID) {
	ctx.Activate(u)
	if b.inIx != nil {
		t := &b.tally[ctx.WorkerID()]
		t.out += b.outIx.RecordBytes(u)
		t.in += b.inIx.RecordBytes(u)
	}
}

// RunOnIterationEnd implements core.IterationEnder: the planner, run for
// one vertex per level while no worker is claiming. The next level reads
// bottom-up when some unvisited vertex has in-edges and their in-records
// are fewer bytes than the new frontier's out-records; it then activates
// every such vertex. With none left the level can find nothing either
// way and stays top-down, so a graph on which bottom-up never reads less
// (a path, say) is read exactly as top-down BFS reads it.
//
// It is a per-vertex notification rather than a core.IterationHook
// because a caller that wraps the program to add a hook of its own would
// silently shadow this one.
func (b *BFS) RunOnIterationEnd(ctx *core.Ctx, _ graph.VertexID) {
	var next int64
	for i := range b.tally {
		t := &b.tally[i]
		next += t.out
		b.unseenIn -= t.in
		t.out, t.in = 0, 0
	}
	b.bottomUp = b.unseenIn > 0 && b.unseenIn < next
	if !b.bottomUp {
		return
	}
	for i, w := range b.unseen {
		for rest := w; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			if v := graph.VertexID(i<<6 + bit); b.Level[v] < 0 {
				ctx.Activate(v)
			} else {
				w &^= 1 << bit
			}
		}
		b.unseen[i] = w
	}
}

// RunOnMessage implements core.Algorithm (BFS sends no messages).
func (b *BFS) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {}

// StateBytes implements core.StateSized: one level int32 per vertex,
// plus the planner's bit.
func (b *BFS) StateBytes() int64 { return int64(len(b.Level))*4 + int64(len(b.unseen))*8 }

// Reached returns the number of visited vertices.
func (b *BFS) Reached() int64 {
	var n int64
	for _, l := range b.Level {
		if l >= 0 {
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
