package core

import (
	"flashgraph/internal/graph"
)

// Ctx is the per-worker execution context handed to vertex-program
// callbacks. It is owned by one worker goroutine of one run and must
// not escape the callback; in particular it must never be handed to a
// sibling run sharing the same substrate.
type Ctx struct {
	eng    *Engine
	w      *worker
	cur    graph.VertexID   // vertex on whose behalf callbacks run
	part   int              // current vertical partition
	inMsgs bool             // true during the message phase
	nbrs   []graph.VertexID // Neighbors' decode buffer
	// Workers' contexts are allocated back to back and written per
	// vertex and per message: the pad keeps two off one cache line.
	_ [64]byte
}

// Engine returns the running engine (graph metadata, degrees).
func (c *Ctx) Engine() *Engine { return c.eng }

// Iteration returns the current iteration number (0-based).
func (c *Ctx) Iteration() int { return c.eng.iteration }

// Part returns the current vertical partition index (0 unless the
// algorithm implements VerticallyPartitioned).
func (c *Ctx) Part() int { return c.part }

// RequestEdges asks the engine to fetch the edge lists of the given
// vertices in the given direction on behalf of the current vertex. The
// lists are delivered to RunOnVertex. Requesting is only legal from Run
// and RunOnVertex (the paper pushes vertex computation into the page
// cache; message handlers run purely in memory).
func (c *Ctx) RequestEdges(dir graph.EdgeDir, targets ...graph.VertexID) {
	if c.inMsgs {
		panic("core: RequestEdges from RunOnMessage is not supported")
	}
	if dir == graph.InEdges && !c.eng.img.Directed {
		panic("core: in-edge request on an undirected graph")
	}
	ix := c.eng.index(dir)
	for _, t := range targets {
		off, size := ix.Locate(t)
		c.eng.pendingReqs[c.cur]++
		c.w.request(edgeReq{requester: c.cur, target: t, dir: dir, off: off, size: size})
	}
	c.w.edgeReqs += int64(len(targets))
}

// RequestSelf fetches the current vertex's own edge list (the common
// case, e.g. BFS's request_vertices(&id, 1)).
func (c *Ctx) RequestSelf(dir graph.EdgeDir) {
	c.RequestEdges(dir, c.cur)
}

// Activate marks v active in the next iteration. Activation is
// idempotent (the underlying multicast carries no data, so duplicates
// collapse).
func (c *Ctx) Activate(v graph.VertexID) {
	c.eng.activeNext.Set(int(v))
}

// ActivateMany activates a batch of vertices (multicast activation). The
// slice is not kept.
func (c *Ctx) ActivateMany(vs []graph.VertexID) {
	c.eng.activeNext.SetMany(vs)
}

// self is the current vertex, for the calls that act on its behalf.
func (c *Ctx) self() graph.VertexID {
	if c.inMsgs && c.w.sums != nil { // inside RunOnSums: cur names no vertex
		panic("core: Send, Multicast or NotifyIterationEnd from RunOnSums: a range of sums has no current vertex")
	}
	return c.cur
}

// Send delivers msg to vertex `to` during this iteration's message
// phase. msg.From is set to the current vertex.
func (c *Ctx) Send(to graph.VertexID, msg Message) {
	msg.From = c.self()
	c.w.multicast([]graph.VertexID{to}, msg)
}

// Multicast delivers the same message to every target, copying it once
// per destination worker rather than once per vertex (§3.4.1). For a
// SumReceiver it adds msg.I64 into each target's sum instead.
func (c *Ctx) Multicast(targets []graph.VertexID, msg Message) {
	msg.From = c.self()
	c.w.multicast(targets, msg)
}

// NotifyIterationEnd requests that RunOnIterationEnd be called for the
// current vertex when this iteration's active vertices have all been
// processed.
func (c *Ctx) NotifyIterationEnd() {
	c.w.iterEnd = append(c.w.iterEnd, c.self())
}

// OutDegree returns v's out-degree from the in-memory index.
func (c *Ctx) OutDegree(v graph.VertexID) uint32 { return c.eng.OutDegree(v) }

// InDegree returns v's in-degree from the in-memory index.
func (c *Ctx) InDegree(v graph.VertexID) uint32 { return c.eng.InDegree(v) }

// NumVertices returns the graph's vertex count.
func (c *Ctx) NumVertices() int { return c.eng.img.NumV }

// WorkerID identifies the worker executing this callback (stable for
// all callbacks of one vertex's requests within a phase). Algorithms
// index per-worker state that outlives a callback by it; a list decoded
// for one callback needs none (Neighbors).
func (c *Ctx) WorkerID() int { return c.w.id }

// Neighbors decodes pv's whole edge list into a buffer this worker's
// context owns, in one streaming pass under every record encoding and
// allocation-free once the buffer has grown to the longest list. The
// slice is valid until the next call on this worker; Multicast copies
// its targets, so handing it the slice is safe.
func (c *Ctx) Neighbors(pv *graph.PageVertex) []graph.VertexID {
	c.nbrs = pv.Edges(c.nbrs[:0], nil)
	return c.nbrs
}
