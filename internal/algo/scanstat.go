package algo

import (
	"slices"
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
// reach the current maximum skips all computation and, crucially, all
// I/O ("we avoid actual computation for many vertices" [27]).
type ScanStat struct {
	// Max is the maximum locality statistic found.
	Max int64
	// ArgMax is the smallest vertex achieving it.
	ArgMax graph.VertexID

	mu sync.Mutex // guards Max/ArgMax update pair
	nb nbrhood

	// Computed counts vertices that did the full neighborhood scan
	// (diagnostics: shows how many the scheduler skipped).
	Computed int64
	// Skipped counts vertices pruned by the bound.
	Skipped int64
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
	s.nb.init(eng)
	eng.ActivateAllSeeds()
}

// Order implements core.CustomScheduler: largest degree first, so the
// early iterations establish a high bar and the long tail prunes away.
func (s *ScanStat) Order(eng *core.Engine, vs []graph.VertexID) {
	sort.Slice(vs, func(i, j int) bool { return degreeBound(eng, vs[i]) > degreeBound(eng, vs[j]) })
}

// MaxRunning implements core.RunningLimiter: pruning compares against the
// maximum earlier batches found, so batches must be small enough for the
// bar to rise before the long tail is admitted.
func (s *ScanStat) MaxRunning() int { return 512 }

// pruned reports whether a vertex of (undirected-degree upper bound) d
// cannot reach the current maximum even with every neighbor pair
// adjacent, and counts it skipped if so. A vertex that could tie still
// runs, so every vertex scoring the final maximum is computed.
func (s *ScanStat) pruned(d int) bool {
	if bound := int64(d) + int64(d)*int64(d-1)/2; bound >= atomic.LoadInt64(&s.Max) {
		return false
	}
	atomic.AddInt64(&s.Skipped, 1)
	return true
}

// Run implements core.Algorithm.
func (s *ScanStat) Run(ctx *core.Ctx, v graph.VertexID) {
	if d := degreeBound(ctx.Engine(), v); d > 0 && !s.pruned(d) {
		s.nb.fetchOwn(ctx)
	}
}

// RunOnVertex implements core.Algorithm: the vertex's own list or a
// neighbor's list is whole.
func (s *ScanStat) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	list, ok := s.nb.arrived(ctx, v, pv)
	if !ok {
		return
	}
	if pv.ID == v {
		// Re-check the bound with the true (deduplicated) degree.
		if len(list) > 0 && !s.pruned(len(list)) {
			s.nb.issue(ctx, v, s.nb.start(v, list, 1), list)
		}
		return
	}
	st := s.nb.state(v)
	for _, w := range list {
		if _, ok := slices.BinarySearch(st.nbrs, w); ok {
			st.among++ // single writer: the requester's worker
		}
	}
	if !s.nb.landed(v, st) {
		return
	}
	scan := int64(len(st.nbrs)) + st.among/2
	atomic.AddInt64(&s.Computed, 1)
	s.mu.Lock()
	// The lock serializes (Max, ArgMax) updates; the load is still atomic
	// because pruning reads Max locklessly. A tie keeps the smaller vertex.
	if cur := atomic.LoadInt64(&s.Max); scan > cur || scan == cur && v < s.ArgMax {
		atomic.StoreInt64(&s.Max, scan)
		s.ArgMax = v
	}
	s.mu.Unlock()
}

// RunOnMessage implements core.Algorithm (scan statistics sends none).
func (s *ScanStat) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {}

// StateBytes implements core.StateSized: the transient neighbor sets are
// bounded by the running-vertex cap; steady state is O(1) per vertex.
func (s *ScanStat) StateBytes() int64 { return 64 }

// Result implements core.ResultProducer: the maximum and the smallest
// vertex achieving it, both fixed by the image. Computed and Skipped
// stay off the set: how many vertices pruning skips races across
// workers.
func (s *ScanStat) Result() *result.ResultSet {
	rs := result.New("scanstat")
	// Result runs after the engine joins its workers, but Max is atomic
	// on the hot path — keep every access atomic (atomicmix).
	rs.AddScalar("max", atomic.LoadInt64(&s.Max))
	rs.AddScalar("argmax", s.ArgMax)
	return rs
}
