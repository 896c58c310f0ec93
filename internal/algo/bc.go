package algo

import (
	"sync"
	"sync/atomic"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// BC computes betweenness centrality contributions from a single source
// (§4: "BFS from a vertex, followed by a back propagation" [6]). It
// needs both edge directions: out-edges drive the forward shortest-path
// counting, in-edges drive the dependency back propagation.
//
// Forward phase: level-synchronous BFS where each newly-settled vertex
// multicasts (level, sigma) to its out-neighbors; receivers on the next
// level accumulate path counts. Backward phase: levels are replayed
// deepest-first (the iteration hook activates one level bucket per
// iteration); each vertex multicasts (1+delta)/sigma to its
// in-neighbors, and parents one level up accumulate sigma_parent × that.
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

const (
	bcForward uint8 = iota
	bcBackward
)

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

// Run implements core.Algorithm.
func (b *BC) Run(ctx *core.Ctx, v graph.VertexID) {
	if atomic.LoadInt32(&b.phase) == 0 {
		// Forward: record the vertex in its level bucket for the
		// backward replay, then push path counts downstream.
		b.bucketMu.Lock()
		lvl := int(b.level[v])
		for len(b.buckets) <= lvl {
			b.buckets = append(b.buckets, nil)
		}
		b.buckets[lvl] = append(b.buckets[lvl], v)
		b.bucketMu.Unlock()
		ctx.RequestSelf(graph.OutEdges)
		return
	}
	// Backward: pull dependency contributions from successors was done
	// by their multicasts in the previous iteration; now propagate to
	// parents over in-edges.
	if ctx.Engine().Directed() {
		ctx.RequestSelf(graph.InEdges)
	} else {
		ctx.RequestSelf(graph.OutEdges)
	}
}

// RunOnVertex implements core.Algorithm.
func (b *BC) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	if pv.NumEdges() == 0 {
		return
	}
	targets := ctx.Neighbors(pv)
	if atomic.LoadInt32(&b.phase) == 0 {
		ctx.Multicast(targets, core.Message{
			Kind: bcForward,
			I64:  int64(b.level[v]),
			F64:  b.sigma[v],
		})
		return
	}
	ctx.Multicast(targets, core.Message{
		Kind: bcBackward,
		I64:  int64(b.level[v]),
		//fg:allowfloat Brandes dependency is float by definition; BC runs only on the vertex engine and is outside the cross-engine bit-identity contract
		F64: (1 + b.Centrality[v]) / b.sigma[v],
	})
}

// RunOnMessage implements core.Algorithm.
func (b *BC) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	switch msg.Kind {
	case bcForward:
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
			//fg:allowfloat sigma sums integral path counts exactly (< 2^53 paths); float only to share the message F64 slot
			b.sigma[v] += msg.F64
		}
	case bcBackward:
		// Only parents one level above the sender accumulate.
		if b.level[v] == int32(msg.I64)-1 {
			//fg:allowfloat Brandes dependency accumulation; vertex-engine only, not in the bit-identity contract
			b.Centrality[v] += b.sigma[v] * msg.F64
		}
	}
}

// OnIterationEnd implements core.IterationHook: when the forward
// frontier empties, switch to the backward phase and replay level
// buckets deepest-first, one per iteration.
func (b *BC) OnIterationEnd(eng *core.Engine) {
	if atomic.LoadInt32(&b.phase) == 0 {
		if eng.PendingActivations() > 0 {
			return // forward BFS still running
		}
		atomic.StoreInt32(&b.phase, 1)
		b.curLevel = int(atomic.LoadInt32(&b.maxLevel))
		b.activateBucket(eng, b.curLevel)
		return
	}
	b.curLevel--
	// Level 0 is the source; its dependency is not defined (Brandes
	// excludes the source), so stop after level 1 has run.
	if b.curLevel >= 1 {
		b.activateBucket(eng, b.curLevel)
	} else {
		b.Centrality[b.Src] = 0
	}
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
