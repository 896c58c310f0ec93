package algo

import (
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
)

// decodeScratch is one worker's reusable edge-decode space. The
// multicast vertex programs (PageRank, WCC, KCore, BC, PPR) decode
// every active vertex's neighbor list once per iteration — the
// engine's hottest path — so the target slice must not be reallocated
// per vertex. Workers index the pool by ctx.WorkerID(); each entry is
// owned by one worker goroutine and padded to a cache line, because
// every decode rewrites its slice header.
type decodeScratch struct {
	targets []graph.VertexID
	_       [40]byte // 24-byte slice header + 40 = one 64-byte line
}

// newScratchPool sizes the pool for the engine's worker count.
func newScratchPool(eng core.ExecutionEngine) []decodeScratch {
	return make([]decodeScratch, eng.Threads())
}

// edges decodes pv's neighbor list into this worker's buffer in one
// streaming pass, allocation-free in steady state. The returned slice
// is valid until the next call on this worker; Ctx.Multicast copies
// targets per destination partition, so handing it the slice is safe.
func (ws *decodeScratch) edges(pv *graph.PageVertex) []graph.VertexID {
	ws.targets = pv.Edges(ws.targets[:0], nil)
	return ws.targets
}
