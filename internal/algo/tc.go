package algo

import (
	"sort"
	"sync"
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

	directed bool
	workers  []tcWorker
	states   sync.Map // graph.VertexID -> *tcState
}

// tcWorker holds one worker's in-flight decode buffers: lists arrive in
// up to two pieces (out + in) that must be merged before use.
type tcWorker struct {
	own      map[graph.VertexID][]graph.VertexID
	ownLeft  map[graph.VertexID]int
	cand     map[uint64][]graph.VertexID
	candLeft map[uint64]int
	edgeBuf  []graph.VertexID
}

// tcState is the per-running-vertex neighbor set, kept only while the
// vertex has outstanding candidate fetches (memory stays bounded by the
// running-vertex cap).
type tcState struct {
	nbrs      []graph.VertexID // sorted, unique, all > v
	partsLeft int32
	issued    int32
	done      int32
}

// NewTC returns a triangle-counting program.
func NewTC() *TC { return &TC{PartSize: 2048} }

func candKey(v, u graph.VertexID) uint64 { return uint64(v)<<32 | uint64(u) }

// Init implements core.Algorithm.
func (t *TC) Init(eng core.ExecutionEngine) {
	n := eng.NumVertices()
	// Total is atomic on the hot path — keep every access atomic
	// (fg-lint atomicmix), including the pre-worker reset here.
	atomic.StoreInt64(&t.Total, 0)
	t.PerVertex = make([]int64, n)
	t.directed = eng.Directed()
	t.workers = make([]tcWorker, eng.Threads())
	for i := range t.workers {
		t.workers[i] = tcWorker{
			own:      make(map[graph.VertexID][]graph.VertexID),
			ownLeft:  make(map[graph.VertexID]int),
			cand:     make(map[uint64][]graph.VertexID),
			candLeft: make(map[uint64]int),
		}
	}
	eng.ActivateAllSeeds()
}

// degreeBound returns an upper bound on v's undirected degree.
func degreeBound(ctx *core.Ctx, v graph.VertexID) int {
	d := int(ctx.OutDegree(v))
	if ctx.Engine().Directed() {
		d += int(ctx.InDegree(v))
	}
	return d
}

// NumParts implements core.VerticallyPartitioned.
func (t *TC) NumParts(eng *core.Engine, v graph.VertexID) int {
	if t.PartSize <= 0 {
		return 1
	}
	d := int(eng.OutDegree(v))
	if eng.Directed() {
		d += int(eng.InDegree(v))
	}
	if d <= t.PartSize {
		return 1
	}
	return (d + t.PartSize - 1) / t.PartSize
}

// Run implements core.Algorithm. Part 0 fetches the vertex's own lists;
// later parts fetch successive slices of the candidate neighbors.
func (t *TC) Run(ctx *core.Ctx, v graph.VertexID) {
	if ctx.Part() == 0 {
		if degreeBound(ctx, v) == 0 {
			return
		}
		ws := &t.workers[ctx.WorkerID()]
		left := 1
		if t.directed {
			left = 2
		}
		ws.ownLeft[v] = left
		ctx.RequestSelf(graph.OutEdges)
		if t.directed {
			ctx.RequestSelf(graph.InEdges)
		}
		return
	}
	// Later vertical part: fetch this part's slice of candidates.
	st := t.state(v)
	if st == nil {
		return // fewer candidates than the degree bound suggested
	}
	t.issueSlice(ctx, v, st, ctx.Part())
}

func (t *TC) state(v graph.VertexID) *tcState {
	s, ok := t.states.Load(v)
	if !ok {
		return nil
	}
	return s.(*tcState)
}

// sliceBounds returns the candidate range for a part (all candidates
// when partitioning is disabled).
func (t *TC) sliceBounds(st *tcState, part int) (int, int) {
	if t.PartSize <= 0 {
		return 0, len(st.nbrs)
	}
	lo := part * t.PartSize
	hi := lo + t.PartSize
	if lo > len(st.nbrs) {
		lo = len(st.nbrs)
	}
	if hi > len(st.nbrs) {
		hi = len(st.nbrs)
	}
	return lo, hi
}

// issueSlice requests candidate edge lists for one part and retires the
// state when this was the last part and nothing is outstanding.
func (t *TC) issueSlice(ctx *core.Ctx, v graph.VertexID, st *tcState, part int) {
	lo, hi := t.sliceBounds(st, part)
	ws := &t.workers[ctx.WorkerID()]
	left := 1
	if t.directed {
		left = 2
	}
	for _, u := range st.nbrs[lo:hi] {
		ws.candLeft[candKey(v, u)] = left
		atomic.AddInt32(&st.issued, 1)
		ctx.RequestEdges(graph.OutEdges, u)
		if t.directed {
			ctx.RequestEdges(graph.InEdges, u)
		}
	}
	if atomic.AddInt32(&st.partsLeft, -1) == 0 && atomic.LoadInt32(&st.issued) == atomic.LoadInt32(&st.done) {
		t.states.Delete(v)
	}
}

// RunOnVertex implements core.Algorithm: either a piece of the vertex's
// own list or a piece of a candidate's list arrived.
func (t *TC) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	ws := &t.workers[ctx.WorkerID()]
	if pv.ID == v {
		if _, ok := ws.ownLeft[v]; ok {
			t.ownArrived(ctx, ws, v, pv)
			return
		}
	}
	t.candArrived(ctx, ws, v, pv)
}

// ownArrived accumulates the vertex's own list pieces; once complete it
// builds the candidate set (neighbors with larger IDs — each triangle
// is counted at its smallest corner) and issues part 0's fetches.
func (t *TC) ownArrived(ctx *core.Ctx, ws *tcWorker, v graph.VertexID, pv *graph.PageVertex) {
	ws.edgeBuf = pv.Edges(ws.edgeBuf[:0], nil)
	ws.own[v] = append(ws.own[v], ws.edgeBuf...)
	ws.ownLeft[v]--
	if ws.ownLeft[v] > 0 {
		return
	}
	delete(ws.ownLeft, v)
	raw := ws.own[v]
	delete(ws.own, v)

	nbrs := dedupGreater(raw, v)
	if len(nbrs) == 0 {
		return
	}
	// Every engine-scheduled part decrements partsLeft (empty slices are
	// no-ops), so the count must match NumParts exactly.
	st := &tcState{nbrs: nbrs, partsLeft: int32(t.NumParts(ctx.Engine(), v))}
	t.states.Store(v, st)
	t.issueSlice(ctx, v, st, 0)
}

// candArrived accumulates a candidate's list pieces; once complete it
// intersects with the requester's candidate set.
func (t *TC) candArrived(ctx *core.Ctx, ws *tcWorker, v graph.VertexID, pv *graph.PageVertex) {
	u := pv.ID
	key := candKey(v, u)
	ws.edgeBuf = pv.Edges(ws.edgeBuf[:0], nil)
	ws.cand[key] = append(ws.cand[key], ws.edgeBuf...)
	ws.candLeft[key]--
	if ws.candLeft[key] > 0 {
		return
	}
	delete(ws.candLeft, key)
	merged := ws.cand[key]
	delete(ws.cand, key)

	st := t.state(v)
	if st == nil {
		return
	}
	uNbrs := dedupGreater(merged, u) // triangle corners satisfy w > u > v
	found := int64(0)
	for _, w := range uNbrs {
		if containsSorted(st.nbrs, w) {
			found++
			t.PerVertex[v]++ // requester's worker: single writer
			ctx.Send(w, core.Message{I64: 1})
		}
	}
	if found > 0 {
		atomic.AddInt64(&t.Total, found)
		ctx.Send(u, core.Message{I64: found})
	}
	if atomic.AddInt32(&st.done, 1) == atomic.LoadInt32(&st.issued) && atomic.LoadInt32(&st.partsLeft) == 0 {
		t.states.Delete(v)
	}
}

// RunOnMessage implements core.Algorithm: the other two corners learn
// about their triangles.
func (t *TC) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	t.PerVertex[v] += msg.I64
}

// StateBytes implements core.StateSized.
func (t *TC) StateBytes() int64 { return int64(len(t.PerVertex)) * 8 }

// dedupGreater sorts raw, removes duplicates, and keeps only IDs
// strictly greater than v.
func dedupGreater(raw []graph.VertexID, v graph.VertexID) []graph.VertexID {
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	out := make([]graph.VertexID, 0, len(raw))
	var prev graph.VertexID = graph.InvalidVertex
	for _, u := range raw {
		if u <= v || u == prev {
			continue
		}
		out = append(out, u)
		prev = u
	}
	return out
}

// containsSorted reports whether sorted slice s contains x.
func containsSorted(s []graph.VertexID, x graph.VertexID) bool {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= x })
	return i < len(s) && s[i] == x
}

// Result implements core.ResultProducer: scalar-only (the engine does
// not retain per-vertex triangle counts).
func (t *TC) Result() *result.ResultSet {
	rs := result.New("tc")
	rs.AddScalar("triangles", atomic.LoadInt64(&t.Total))
	return rs
}
