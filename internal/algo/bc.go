package algo

import (
	"sync"
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// BC computes betweenness centrality contributions from a single source
// (§4: "BFS from a vertex, followed by a back propagation" [6]). Both
// phases read out-lists only.
//
// Forward phase: level-synchronous BFS where each newly-settled vertex
// multicasts (level, sigma) to its out-neighbors; receivers on the next
// level accumulate path counts. Backward phase: levels are replayed
// deepest-first (the iteration hook activates one level bucket per
// iteration, from maxLevel-1, since the deepest level has no
// successors); each vertex re-reads its out-list and pulls
// delta_v = sigma_v × Σ (1+delta_w)/sigma_w over its successors w one
// level down, in list order. Successors are final since the previous
// barrier and the vertex writes only its own entry, so the backward
// phase sends nothing and Centrality is the same at any thread count.
type BC struct {
	// Src is the source vertex.
	Src graph.VertexID
	// Centrality[v] is v's dependency (Brandes delta) from Src.
	Centrality []float64

	level []int32
	sigma []float64

	phase    int32 // 0 = forward, 1 = backward
	maxLevel int32
	curLevel int

	bucketMu sync.Mutex
	buckets  [][]graph.VertexID
}

// NewBC returns a BC program rooted at src.
func NewBC(src graph.VertexID) *BC { return &BC{Src: src} }

// Init implements core.Algorithm.
func (b *BC) Init(eng core.ExecutionEngine) {
	n := eng.NumVertices()
	b.Centrality = make([]float64, n)
	b.level = make([]int32, n)
	b.sigma = make([]float64, n)
	for i := range b.level {
		b.level[i] = -1
	}
	b.level[b.Src] = 0
	b.sigma[b.Src] = 1
	// phase/maxLevel are atomic on the hot path — keep every access
	// atomic (fg-lint atomicmix), including the pre-worker reset here.
	atomic.StoreInt32(&b.phase, 0)
	atomic.StoreInt32(&b.maxLevel, 0)
	b.buckets = nil
	eng.ActivateSeed(b.Src)
}

// Run implements core.Algorithm: both phases read the out-list; the
// forward phase also records the vertex in its level bucket for the
// backward replay.
func (b *BC) Run(ctx *core.Ctx, v graph.VertexID) {
	if atomic.LoadInt32(&b.phase) == 0 {
		b.bucketMu.Lock()
		lvl := int(b.level[v])
		for len(b.buckets) <= lvl {
			b.buckets = append(b.buckets, nil)
		}
		b.buckets[lvl] = append(b.buckets[lvl], v)
		b.bucketMu.Unlock()
	}
	ctx.RequestSelf(graph.OutEdges)
}

// RunOnVertex implements core.Algorithm: forward, push (level, sigma)
// downstream; backward, pull the successors' dependencies.
func (b *BC) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if pv.NumEdges() == 0 {
		return
	}
	if atomic.LoadInt32(&b.phase) == 0 {
		ctx.Multicast(ctx.Neighbors(pv), core.Message{I64: int64(b.level[v]), F64: b.sigma[v]})
		return
	}
	next := b.level[v] + 1
	var sum float64
	for _, w := range ctx.Neighbors(pv) {
		if b.level[w] == next {
			//fg:allowfloat Brandes dependency, summed in out-list order on the one worker that owns v
			sum += (1 + b.Centrality[w]) / b.sigma[w]
		}
	}
	//fg:allowfloat Brandes dependency; a pure function of v's out-list and its final successors
	b.Centrality[v] = b.sigma[v] * sum
}

// RunOnMessage implements core.Algorithm: a forward (level, sigma)
// message settles v one level below its sender and adds the sender's
// path count.
func (b *BC) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	senderLevel := int32(msg.I64)
	if b.level[v] == -1 {
		b.level[v] = senderLevel + 1
		for {
			m := atomic.LoadInt32(&b.maxLevel)
			if b.level[v] <= m || atomic.CompareAndSwapInt32(&b.maxLevel, m, b.level[v]) {
				break
			}
		}
		ctx.Activate(v)
	}
	if b.level[v] == senderLevel+1 {
		//fg:allowfloat sigma sums integral path counts, exact in any order below 2^53 paths
		b.sigma[v] += msg.F64
	}
}

// OnIterationEnd implements core.IterationHook: when the forward
// frontier empties, switch to the backward phase and replay level
// buckets deepest-first, one per iteration, down to level 1 (Brandes
// excludes the source, whose Centrality stays 0).
func (b *BC) OnIterationEnd(eng *core.Engine) {
	if atomic.LoadInt32(&b.phase) == 0 {
		if eng.PendingActivations() > 0 {
			return // forward BFS still running
		}
		atomic.StoreInt32(&b.phase, 1)
		b.curLevel = int(atomic.LoadInt32(&b.maxLevel))
	}
	b.curLevel--
	b.activateBucket(eng, b.curLevel)
}

func (b *BC) activateBucket(eng *core.Engine, lvl int) {
	b.bucketMu.Lock()
	defer b.bucketMu.Unlock()
	if lvl < 1 || lvl >= len(b.buckets) {
		return
	}
	for _, v := range b.buckets[lvl] {
		eng.ActivateSeed(v)
	}
}

// StateBytes implements core.StateSized: level + sigma + delta.
func (b *BC) StateBytes() int64 { return int64(len(b.level)) * 20 }

// Result implements core.ResultProducer: the per-vertex "centrality"
// vector plus its maximum and argmax (via the shared Max reduction —
// no bespoke argmax scan in the serving layer).
func (b *BC) Result() *result.ResultSet {
	rs := result.New("bc")
	v := rs.AddFloat64("centrality", b.Centrality)
	if e, ok := v.Max(); ok {
		rs.AddScalar("max_centrality", e.Value)
		rs.AddScalar("argmax", e.Vertex)
	}
	return rs
}
