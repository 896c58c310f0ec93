package algo

import (
	"slices"
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// TC counts triangles (§4, [28]): a vertex intersects its own
// (undirected) neighbor list with each neighbor's list, counting each
// triangle exactly once at its minimum-ID corner, and notifies the other
// two corners by message so every vertex learns its triangle count.
//
// This is the paper's most I/O-intensive access pattern — a vertex reads
// the edge lists of many other vertices — and the one vertical
// partitioning serves: a large vertex is split into parts that each
// fetch one slice of its candidate lists, so concurrent threads touch
// nearby edge lists and share cache (§3.8).
type TC struct {
	// PartSize is the number of candidate neighbors fetched per
	// vertical part (0 disables vertical partitioning; default 2048).
	PartSize int
	// Total is the number of distinct triangles.
	Total int64
	// PerVertex[v] counts triangles containing v.
	PerVertex []int64

	nb nbrhood
}

// NewTC returns a triangle-counting program.
func NewTC() *TC { return &TC{PartSize: 2048} }

// Init implements core.Algorithm.
func (t *TC) Init(eng core.ExecutionEngine) {
	// Total is atomic on the hot path — keep every access atomic
	// (fg-lint atomicmix), including the pre-worker reset here.
	atomic.StoreInt64(&t.Total, 0)
	t.PerVertex = make([]int64, eng.NumVertices())
	t.nb.init(eng)
	eng.ActivateAllSeeds()
}

// NumParts implements core.VerticallyPartitioned.
func (t *TC) NumParts(eng *core.Engine, v graph.VertexID) int {
	d := degreeBound(eng, v)
	if t.PartSize <= 0 || d <= t.PartSize {
		return 1
	}
	return (d + t.PartSize - 1) / t.PartSize
}

// Run implements core.Algorithm. Part 0 fetches the vertex's own list;
// later parts fetch successive slices of the candidate neighbors.
func (t *TC) Run(ctx *core.Ctx, v graph.VertexID) {
	if ctx.Part() == 0 {
		if degreeBound(ctx.Engine(), v) > 0 {
			t.nb.fetchOwn(ctx)
		}
		return
	}
	// No state: fewer candidates than the degree bound suggested.
	if st := t.nb.state(v); st != nil {
		t.nb.issue(ctx, v, st, t.slice(st, ctx.Part()))
	}
}

// slice returns one part's candidates (all of them when partitioning is
// disabled).
func (t *TC) slice(st *nbrState, part int) []graph.VertexID {
	if t.PartSize <= 0 {
		return st.nbrs
	}
	lo := min(part*t.PartSize, len(st.nbrs))
	return st.nbrs[lo:min(lo+t.PartSize, len(st.nbrs))]
}

// RunOnVertex implements core.Algorithm: the vertex's own list or a
// candidate's list is whole.
func (t *TC) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	list, ok := t.nb.arrived(ctx, v, pv)
	if !ok {
		return
	}
	if pv.ID == v {
		// Candidates are the neighbors above v: each triangle is counted
		// at its smallest corner. Every engine-scheduled part issues once
		// (empty slices too), so the count must match NumParts exactly.
		if nbrs := above(list, v); len(nbrs) > 0 {
			st := t.nb.start(v, nbrs, t.NumParts(ctx.Engine(), v))
			t.nb.issue(ctx, v, st, t.slice(st, 0))
		}
		return
	}
	u, st := pv.ID, t.nb.state(v)
	found := int64(0)
	for _, w := range above(list, u) { // triangle corners satisfy w > u > v
		if _, ok := slices.BinarySearch(st.nbrs, w); ok {
			found++
			t.PerVertex[v]++ // requester's worker: single writer
			ctx.Send(w, core.Message{I64: 1})
		}
	}
	if found > 0 {
		atomic.AddInt64(&t.Total, found)
		ctx.Send(u, core.Message{I64: found})
	}
	t.nb.landed(v, st)
}

// RunOnSums implements core.SumReceiver: the other two corners learn
// about their triangles, summed per corner. The range is the calling
// worker's own.
func (t *TC) RunOnSums(ctx *core.Ctx, first graph.VertexID, sums []int64) {
	per := t.PerVertex[first:]
	for i, n := range sums {
		per[i] += n
	}
}

// RunOnMessage implements core.Algorithm: one message at a time, for
// callers that hide RunOnSums.
func (t *TC) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	t.PerVertex[v] += msg.I64
}

// StateBytes implements core.StateSized.
func (t *TC) StateBytes() int64 { return int64(len(t.PerVertex)) * 8 }

// Result implements core.ResultProducer: the triangles scalar only.
// PerVertex is filled on the program for callers that run it directly;
// the result set carries the total.
func (t *TC) Result() *result.ResultSet {
	rs := result.New("tc")
	rs.AddScalar("triangles", atomic.LoadInt64(&t.Total))
	return rs
}
