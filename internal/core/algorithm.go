// Package core implements the FlashGraph semi-external-memory graph
// engine (FAST'15 §3): vertex-centric programs execute over in-memory
// vertex state while edge lists stream from SSDs through SAFS's
// asynchronous user-task I/O interface.
//
// The engine reproduces the paper's machinery:
//
//   - the four-method vertex-program interface (Run, RunOnVertex,
//     RunOnMessage, RunOnIterationEnd — Figure 3);
//   - iterations over activated vertices with three vertex states
//     (inactive → active → running — §3.3);
//   - per-thread vertex schedulers that keep up to MaxRunning vertices
//     in the running state, order execution by vertex ID, and alternate
//     scan direction between iterations (§3.7);
//   - selective edge-list access with global sort + conservative merge
//     of I/O requests (same or adjacent 4KB pages) in the engine (§3.6);
//   - message passing with per-thread buffering and multicast (§3.4.1);
//   - 2D partitioning: vertex ranges cut by edge bytes across workers
//     plus optional vertical partitioning of large vertices (§3.8);
//   - dynamic load balancing by work stealing (§3.8.1);
//   - an in-memory mode that replaces SAFS with memory-resident edge
//     lists (§5.1's "FG-mem" baseline).
//
// The message path, beside the read path (RequestEdges → worker.issue →
// safs.IOContext.ReadTask → Flush):
//
//	Ctx.Multicast / Send        one walk over the targets, msg copied
//	  → header per partition    once per destination partition, its
//	  → msgChunk                targets appended behind the header in a
//	                            flat chunk owned by (sender, partition)
//	  → owner's inbox           a full chunk changes hands by pointer
//	  → worker.messagePhase     owner walks headers × targets, RunOnMessage
//
// Two memory rules hold between barriers and make that steady state
// allocation-free: request-side state (the request slab, pooled read
// tasks) is bounded by MaxRunning, never by the iteration's volume; and
// of the chunks an iteration buffers nothing outlives its delivery
// beyond Threads spares per worker.
package core

import (
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// Message is the fixed-size unit of vertex communication. Fixed layout
// keeps message buffers allocation-free; the fields' meaning is
// algorithm-defined.
type Message struct {
	// From is the sending vertex.
	From graph.VertexID
	// Kind discriminates message types within an algorithm.
	Kind uint8
	// I64 and F64 carry the payload.
	I64 int64
	F64 float64
}

// Algorithm is a vertex program (paper Figure 3). One Algorithm value
// serves the whole graph: per-vertex state lives in arrays the algorithm
// allocates in Init, indexed by vertex ID (the engine identifies the
// vertex for every callback, mirroring the paper's computation of vertex
// ID from state address).
//
// Concurrency contract: Run and RunOnVertex for a given vertex never
// execute concurrently with each other; RunOnMessage runs only in the
// message phase, owner-partitioned, never concurrently with Run of the
// same iteration. Callbacks for different vertices run concurrently on
// different workers, so cross-vertex mutation must use atomics or
// messages (the paper's rule: touch other vertices only via messages).
type Algorithm interface {
	// Init allocates state and activates seed vertices via
	// ActivateSeed / ActivateAllSeeds. It runs once per Run call (the
	// Program interface: algorithms that also implement SpMVProgram
	// share one Init across both executable forms, branching on
	// eng.Kind() where the forms need different setup).
	Init(eng ExecutionEngine)
	// Run is the per-iteration entry point of an active vertex. It may
	// only touch v's own state; edge lists must be requested explicitly
	// (ctx.RequestEdges) — vertices are commonly activated but do no
	// work, and unconditional edge reads would waste I/O bandwidth.
	Run(ctx *Ctx, v graph.VertexID)
	// RunOnVertex delivers a requested edge list. pv.ID names the vertex
	// whose list arrived (not necessarily v, the requester).
	RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex)
	// RunOnMessage delivers a message to v. It executes even if v is
	// inactive in the iteration.
	RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message)
}

// IterationEnder is implemented by algorithms whose vertices request
// end-of-iteration notification (paper: "a vertex needs to request this
// notification explicitly" via Ctx.NotifyIterationEnd).
type IterationEnder interface {
	RunOnIterationEnd(ctx *Ctx, v graph.VertexID)
}

// IterationHook is an optional engine-level hook that runs once per
// iteration after all messages are delivered. It may activate vertices
// for the next iteration (e.g. level-stepped back-propagation in
// betweenness centrality) and is where algorithms implement phase
// switches.
type IterationHook interface {
	OnIterationEnd(eng *Engine)
}

// CustomScheduler is implemented by algorithms that order vertex
// execution themselves (paper §3.7: scan statistics schedules
// large-degree vertices first). Order reorders vs in place. The default
// scheduler defers to it; only the SchedRandom ablation does not.
type CustomScheduler interface {
	Order(eng *Engine, vs []graph.VertexID)
}

// VerticallyPartitioned is implemented by algorithms that split large
// vertices into vertex parts (paper §3.8): part p of vertex v runs in
// vertical-partition phase p, and all parts of phase p across all
// vertices run before phase p+1. NumParts must be ≥ 1.
type VerticallyPartitioned interface {
	NumParts(eng *Engine, v graph.VertexID) int
}

// ResultProducer is implemented by algorithms that expose their output
// through the uniform typed result contract (internal/result): named
// per-vertex vectors plus named scalars, with point lookup, top-K,
// reductions, and a deterministic checksum. Call Result only after Run
// completes; every built-in algorithm implements it, and the serve
// layer requires it for anything beyond an empty result summary.
type ResultProducer = result.Producer

// StateSized is implemented by algorithms that report their vertex-state
// footprint (bytes) for the memory accounting in Figure 11 / Table 2.
type StateSized interface {
	StateBytes() int64
}

// IterationLimiter is implemented by algorithms with a built-in
// iteration cap (PageRank uses 30, matching Pregel); 0 or less runs to
// convergence. No engine knob adds a cap.
type IterationLimiter interface {
	MaxIterations() int
}

// RunningLimiter is implemented by algorithms that need a running window
// tighter than the deployment's (scan statistics' pruning). The engine
// keeps min(Config.MaxRunning, MaxRunning()) vertices running per thread;
// 0 or less declares nothing.
type RunningLimiter interface {
	MaxRunning() int
}
