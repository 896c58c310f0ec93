package algo

import (
	"slices"
	"sync"
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
)

// nbrhood is the neighbourhood fetch triangle counting and scan
// statistics share (§4): a vertex reads its own undirected edge list,
// then the lists of the neighbours it picks as candidates, and
// intersects each with its own. A directed image stores an undirected
// list as two records (out + in), so a list is collected from its
// pieces before the program sees it.
type nbrhood struct {
	directed bool
	workers  []nbrWorker
	states   sync.Map // graph.VertexID -> *nbrState
}

// nbrWorker holds the lists one worker is still collecting, keyed
// (requester, owner): v's own list is (v, v), a candidate u's is (v, u).
// A list never holds its owner, so the two kinds never share a key, and
// completions run on the worker that issued them, so no lock.
type nbrWorker struct {
	pieces map[uint64][]graph.VertexID
}

// nbrState is a running vertex's candidate set, kept only while a
// vertical part or a candidate fetch is outstanding (memory stays
// bounded by the running-vertex cap). Phases run one after another, and
// within one a vertex's fetches all land on the worker that issued them.
type nbrState struct {
	nbrs      []graph.VertexID // sorted candidates
	among     int64            // ScanStat's Σ_u |N(u) ∩ N(v)| (counts each edge twice)
	partsLeft atomic.Int32
	issued    atomic.Int32
	done      atomic.Int32
}

func (n *nbrhood) init(eng core.ExecutionEngine) {
	n.directed = eng.Directed()
	n.workers = make([]nbrWorker, eng.Threads())
	for i := range n.workers {
		n.workers[i].pieces = make(map[uint64][]graph.VertexID)
	}
	n.states.Clear()
}

// degreeBound returns an upper bound on v's undirected degree: a
// directed image counts a neighbour linked both ways twice.
func degreeBound(eng *core.Engine, v graph.VertexID) int {
	d := int(eng.OutDegree(v))
	if eng.Directed() {
		d += int(eng.InDegree(v))
	}
	return d
}

// fetchOwn requests the running vertex's own list.
func (n *nbrhood) fetchOwn(ctx *core.Ctx) {
	ctx.RequestSelf(graph.OutEdges)
	if n.directed {
		ctx.RequestSelf(graph.InEdges)
	}
}

// start keeps v's candidate set for parts vertical parts; each part
// must call issue once, even with no candidates.
func (n *nbrhood) start(v graph.VertexID, nbrs []graph.VertexID, parts int) *nbrState {
	st := &nbrState{nbrs: nbrs}
	st.partsLeft.Store(int32(parts))
	n.states.Store(v, st)
	return st
}

// state returns v's candidate set, or nil if it has none.
func (n *nbrhood) state(v graph.VertexID) *nbrState {
	if st, ok := n.states.Load(v); ok {
		return st.(*nbrState)
	}
	return nil
}

// issue requests the lists of candidates us on v's behalf and closes
// one of v's parts, retiring v's state if nothing is outstanding.
func (n *nbrhood) issue(ctx *core.Ctx, v graph.VertexID, st *nbrState, us []graph.VertexID) {
	for _, u := range us {
		st.issued.Add(1)
		ctx.RequestEdges(graph.OutEdges, u)
		if n.directed {
			ctx.RequestEdges(graph.InEdges, u)
		}
	}
	if st.partsLeft.Add(-1) == 0 && st.issued.Load() == st.done.Load() {
		n.states.Delete(v)
	}
}

// landed marks one of v's candidate lists used and reports whether it
// was the last: then v's state is retired.
func (n *nbrhood) landed(v graph.VertexID, st *nbrState) bool {
	if st.done.Add(1) == st.issued.Load() && st.partsLeft.Load() == 0 {
		n.states.Delete(v)
		return true
	}
	return false
}

// arrived collects the piece of a list pv carries for requester v. Once
// the list is whole it returns it sorted, deduplicated and without its
// owner pv.ID; until then ok is false. The list is v's own when
// pv.ID == v, a candidate's otherwise.
func (n *nbrhood) arrived(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) (list []graph.VertexID, ok bool) {
	ws := &n.workers[ctx.WorkerID()]
	key := uint64(v)<<32 | uint64(pv.ID)
	first, seen := ws.pieces[key]
	if n.directed && !seen {
		ws.pieces[key] = pv.Edges(nil, nil)
		return nil, false
	}
	delete(ws.pieces, key)
	list = append(first, ctx.Neighbors(pv)...)
	slices.Sort(list)
	list = slices.Compact(list)
	if i, found := slices.BinarySearch(list, pv.ID); found {
		list = slices.Delete(list, i, i+1)
	}
	return list, true
}

// above returns the part of sorted list (which never holds x) above x.
func above(list []graph.VertexID, x graph.VertexID) []graph.VertexID {
	i, _ := slices.BinarySearch(list, x)
	return list[i:]
}
