package algo

import (
	"sort"
	"sync"
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// ScanStat computes the maximum locality statistic (§4, [26]): the
// largest number of edges in any vertex's closed neighborhood. It is the
// paper's showcase for custom vertex scheduling — vertices run in
// degree-descending order, and a vertex whose best-possible scan cannot
// beat the current maximum skips all computation and, crucially, all I/O
// ("we avoid actual computation for many vertices" [27]).
type ScanStat struct {
	// Max is the maximum locality statistic found.
	Max int64
	// ArgMax is a vertex achieving it.
	ArgMax graph.VertexID

	directed bool
	mu       sync.Mutex // guards Max/ArgMax update pair
	workers  []ssWorker
	states   sync.Map // graph.VertexID -> *ssState

	// Computed counts vertices that did the full neighborhood scan
	// (diagnostics: shows how many the scheduler skipped).
	Computed int64
	// Skipped counts vertices pruned by the bound.
	Skipped int64
}

type ssWorker struct {
	own      map[graph.VertexID][]graph.VertexID
	ownLeft  map[graph.VertexID]int
	cand     map[uint64][]graph.VertexID
	candLeft map[uint64]int
	edgeBuf  []graph.VertexID
}

type ssState struct {
	nbrs   []graph.VertexID // sorted unique neighbors (≠ v)
	among  int64            // Σ_u |N(u) ∩ N(v)| (counts each edge twice)
	issued int32
	done   int32
}

// NewScanStat returns a scan-statistics program.
func NewScanStat() *ScanStat { return &ScanStat{} }

// Init implements core.Algorithm.
func (s *ScanStat) Init(eng core.ExecutionEngine) {
	// Init runs before workers start, but the counters are atomic on
	// the hot path — keep every access atomic (fg-lint atomicmix).
	atomic.StoreInt64(&s.Max, -1)
	s.ArgMax = graph.InvalidVertex
	atomic.StoreInt64(&s.Computed, 0)
	atomic.StoreInt64(&s.Skipped, 0)
	s.directed = eng.Directed()
	s.workers = make([]ssWorker, eng.Threads())
	for i := range s.workers {
		s.workers[i] = ssWorker{
			own:      make(map[graph.VertexID][]graph.VertexID),
			ownLeft:  make(map[graph.VertexID]int),
			cand:     make(map[uint64][]graph.VertexID),
			candLeft: make(map[uint64]int),
		}
	}
	eng.ActivateAllSeeds()
}

// Order implements core.CustomScheduler: largest degree first, so the
// early iterations establish a high bar and the long tail prunes away.
func (s *ScanStat) Order(eng *core.Engine, vs []graph.VertexID) {
	deg := func(v graph.VertexID) uint32 {
		d := eng.OutDegree(v)
		if eng.Directed() {
			d += eng.InDegree(v)
		}
		return d
	}
	sort.Slice(vs, func(i, j int) bool { return deg(vs[i]) > deg(vs[j]) })
}

// MaxRunning implements core.RunningLimiter: pruning compares against the
// maximum earlier batches found, so batches must be small enough for the
// bar to rise before the long tail is admitted.
func (s *ScanStat) MaxRunning() int { return 512 }

// bound returns the best scan a vertex with (undirected-degree upper
// bound) d could achieve: all d neighbor edges plus every neighbor pair
// adjacent.
func scanBound(d int64) int64 { return d + d*(d-1)/2 }

// Run implements core.Algorithm.
func (s *ScanStat) Run(ctx *core.Ctx, v graph.VertexID) {
	d := int64(degreeBound(ctx, v))
	if d == 0 {
		return
	}
	if scanBound(d) <= atomic.LoadInt64(&s.Max) {
		atomic.AddInt64(&s.Skipped, 1)
		return // cannot beat the current maximum: skip the I/O entirely
	}
	ws := &s.workers[ctx.WorkerID()]
	left := 1
	if s.directed {
		left = 2
	}
	ws.ownLeft[v] = left
	ctx.RequestSelf(graph.OutEdges)
	if s.directed {
		ctx.RequestSelf(graph.InEdges)
	}
}

// RunOnVertex implements core.Algorithm.
func (s *ScanStat) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	ws := &s.workers[ctx.WorkerID()]
	if pv.ID == v {
		if _, ok := ws.ownLeft[v]; ok {
			s.ownArrived(ctx, ws, v, pv)
			return
		}
	}
	s.candArrived(ctx, ws, v, pv)
}

func (s *ScanStat) ownArrived(ctx *core.Ctx, ws *ssWorker, v graph.VertexID, pv *graph.PageVertex) {
	ws.edgeBuf = pv.Edges(ws.edgeBuf[:0], nil)
	ws.own[v] = append(ws.own[v], ws.edgeBuf...)
	ws.ownLeft[v]--
	if ws.ownLeft[v] > 0 {
		return
	}
	delete(ws.ownLeft, v)
	raw := ws.own[v]
	delete(ws.own, v)

	nbrs := dedupNeighbors(raw, v)
	d := int64(len(nbrs))
	if d == 0 {
		return
	}
	// Re-check the bound with the true (deduplicated) degree.
	if scanBound(d) <= atomic.LoadInt64(&s.Max) {
		atomic.AddInt64(&s.Skipped, 1)
		return
	}
	st := &ssState{nbrs: nbrs}
	s.states.Store(v, st)
	left := 1
	if s.directed {
		left = 2
	}
	for _, u := range nbrs {
		ws.candLeft[candKey(v, u)] = left
		st.issued++
		ctx.RequestEdges(graph.OutEdges, u)
		if s.directed {
			ctx.RequestEdges(graph.InEdges, u)
		}
	}
}

func (s *ScanStat) candArrived(ctx *core.Ctx, ws *ssWorker, v graph.VertexID, pv *graph.PageVertex) {
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

	sv, ok := s.states.Load(v)
	if !ok {
		return
	}
	st := sv.(*ssState)
	for _, w := range dedupNeighbors(merged, u) {
		if containsSorted(st.nbrs, w) {
			st.among++ // single writer: the requester's worker
		}
	}
	st.done++
	if st.done == st.issued {
		s.states.Delete(v)
		scan := int64(len(st.nbrs)) + st.among/2
		atomic.AddInt64(&s.Computed, 1)
		s.mu.Lock()
		// The lock serializes (Max, ArgMax) updates; the load is still
		// atomic because pruning reads Max locklessly (lines above).
		if scan > atomic.LoadInt64(&s.Max) {
			atomic.StoreInt64(&s.Max, scan)
			s.ArgMax = v
		}
		s.mu.Unlock()
	}
}

// RunOnMessage implements core.Algorithm (scan statistics sends none).
func (s *ScanStat) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {}

// StateBytes implements core.StateSized: the transient neighbor sets are
// bounded by the running-vertex cap; steady state is O(1) per vertex.
func (s *ScanStat) StateBytes() int64 { return 64 }

// dedupNeighbors sorts raw and removes duplicates and v itself.
func dedupNeighbors(raw []graph.VertexID, v graph.VertexID) []graph.VertexID {
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	out := make([]graph.VertexID, 0, len(raw))
	var prev graph.VertexID = graph.InvalidVertex
	for _, u := range raw {
		if u == v || u == prev {
			continue
		}
		out = append(out, u)
		prev = u
	}
	return out
}

// Result implements core.ResultProducer: scalar-only (the pruning
// design means most vertices never compute their scan statistic).
func (s *ScanStat) Result() *result.ResultSet {
	rs := result.New("scanstat")
	// Result runs after the engine joins its workers, but the counters
	// are atomic on the hot path — keep every access atomic (atomicmix).
	rs.AddScalar("max", atomic.LoadInt64(&s.Max))
	rs.AddScalar("argmax", s.ArgMax)
	rs.AddScalar("computed", atomic.LoadInt64(&s.Computed))
	rs.AddScalar("skipped", atomic.LoadInt64(&s.Skipped))
	return rs
}
