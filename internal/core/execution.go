package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// EngineKind names an execution model. An image's layout picks the
// kind (Shared.Kind) and RunStats records which kind produced a run.
type EngineKind string

const (
	// EngineVertex is the message-passing vertex-program engine (Engine):
	// selective edge-list access, per-vertex scheduling, messages — the
	// paper's FlashGraph runtime. It runs the raw and delta layouts.
	EngineVertex EngineKind = "vertex"
	// EngineSpMV is the 2D edge-block streaming engine (SpMVEngine):
	// full sequential sweeps over dense per-vertex state, no message
	// buffers and no per-vertex scheduler. It runs the block layout.
	EngineSpMV EngineKind = "spmv"
)

// ErrWrongEngine reports a run asked of an engine the image's layout
// does not run on (see Shared.Kind).
var ErrWrongEngine = errors.New("core: the image's layout runs on another engine")

// Program is what an execution engine runs: anything with an Init hook.
// The two concrete program forms are Algorithm (vertex programs, run by
// the message-passing engine) and SpMVProgram (dense sweeps, run by the
// SpMV engine); one algorithm value commonly implements both, giving a
// single algorithm name two executable forms.
type Program interface {
	// Init allocates state and seeds activation (ActivateSeed /
	// ActivateAllSeeds — no-ops on the SpMV engine, whose programs keep
	// dense state and their own frontier). It runs once per Run call.
	Init(eng ExecutionEngine)
}

// ExecutionEngine is the run stack's engine abstraction: one loaded
// graph, one run at a time, stamped out per query from a Shared
// substrate (Shared.NewEngine). It carries the load/activation surface
// algorithms actually use from Init plus the run entry point; the
// message-passing Engine and the streaming SpMVEngine both implement it.
type ExecutionEngine interface {
	// Kind reports the execution model.
	Kind() EngineKind
	// SetContext attaches a context bounding the run (deadlines,
	// cancellation); call before Run. Engines check it at iteration
	// (and, for SpMV, stripe) boundaries and stop with an error
	// satisfying errors.Is against context.Canceled or
	// context.DeadlineExceeded. Nil (the default) runs unbounded.
	SetContext(ctx context.Context)
	// Run executes a program to completion. Each engine runs its own
	// program form: the vertex engine requires a core.Algorithm, the
	// SpMV engine a core.SpMVProgram.
	Run(p Program) (RunStats, error)
	// Image returns the loaded graph image.
	Image() *graph.Image
	// Close releases run-private resources. It does not touch the
	// shared substrate.
	Close() error

	// Graph surface.
	NumVertices() int
	Directed() bool
	Weighted() bool
	OutDegree(v graph.VertexID) uint32
	InDegree(v graph.VertexID) uint32

	// Run surface.
	LoadTime() time.Duration
	Iteration() int
	Threads() int
	ActivateSeed(v graph.VertexID)
	ActivateAllSeeds()
	PendingActivations() int64
}

// SpMVProgram is the dense-sweep form of an algorithm, executed by the
// SpMV engine as sequential sweeps over edge stripes: each iteration the
// engine streams the requested directions' edges row by row and hands
// every (row, columns) run to ApplyRow. There is no message passing and
// no per-vertex scheduler — programs keep dense per-vertex state and
// track their own frontier.
//
// Concurrency contract: per column stripe, ApplyRow calls never overlap
// and arrive in (row stripe, row) order. A program that is not
// ColumnLocal gets every call on the one goroutine that runs the sweep
// (I/O is prefetched concurrently), so it may mutate dense state
// freely. A ColumnLocal program swept with Threads ≥ 2 gets calls for
// different column stripes concurrently. A row may be delivered
// multiple times per sweep — once per 2D edge block it spans — so
// per-edge operations must be commutative across a row's deliveries.
// Edge attributes are not delivered; weighted SpMV forms are future
// work.
type SpMVProgram interface {
	Program
	// BeginIteration prepares iteration iter and returns the edge-list
	// directions to sweep, in order. Returning an empty slice ends the
	// run (convergence).
	BeginIteration(eng ExecutionEngine, iter int) []graph.EdgeDir
	// ApplyRow delivers one row's neighbors within one edge block:
	// cols are row's neighbors in the dir-direction edge list, ascending.
	// The slice is engine-owned scratch, invalid after return.
	ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID)
	// EndIteration finishes iteration iter; returning true ends the run.
	EndIteration(eng ExecutionEngine, iter int) (done bool)
}

// ColumnLocal is implemented by SpMV programs whose ApplyRow writes only
// state indexed by a vertex in cols, and reads row-indexed state that
// nothing writes during the sweep. Block (r, c) then writes only column
// stripe c's state, so the engine may apply blocks of different column
// stripes on different goroutines with no shared accumulator and no
// atomics (NXgraph's destination-sorted sub-shards).
type ColumnLocal interface {
	ColumnLocal()
}

// Kind reports the engine the image's layout runs on: block images
// sweep on the SpMV engine, raw and delta records serve the vertex
// engine. It is the one place a layout picks an engine.
func (s *Shared) Kind() EngineKind {
	if s.img.Encoding == graph.EncodingBlock {
		return EngineSpMV
	}
	return EngineVertex
}

// checkKind refuses kind unless it is the image's engine (Kind), with
// an error wrapping ErrWrongEngine.
func (s *Shared) checkKind(kind EngineKind) error {
	if want := s.Kind(); kind != want {
		return fmt.Errorf("%w: %s images run on the %s engine, not %q", ErrWrongEngine, s.img.Encoding, want, kind)
	}
	return nil
}

// NewEngine stamps out a per-run engine of the given kind over the
// shared substrate. kind must be Kind(): any other is refused with
// ErrWrongEngine.
func (s *Shared) NewEngine(kind EngineKind) (ExecutionEngine, error) {
	if err := s.checkKind(kind); err != nil {
		return nil, err
	}
	if kind == EngineSpMV {
		return s.newSpMVRun(), nil
	}
	return s.NewRun(), nil
}

// runBase is what every per-run engine holds of the Shared substrate it
// was stamped from, plus the graph and run surface of ExecutionEngine
// that does not depend on the execution model. Engine and SpMVEngine
// embed it.
type runBase struct {
	shared   *Shared
	cfg      Config
	img      *graph.Image
	files    *graph.FSFiles // nil in in-memory mode
	loadTime time.Duration

	iteration int
	ctx       context.Context // optional run bound, see SetContext
}

func (s *Shared) newRunBase() runBase {
	return runBase{shared: s, cfg: s.cfg, img: s.img, files: s.files, loadTime: s.loadTime}
}

// Shared returns the substrate this run executes over; use it to spawn
// sibling runs that share the graph image, SAFS instance, and cache.
func (b *runBase) Shared() *Shared { return b.shared }

// Image returns the loaded graph image.
func (b *runBase) Image() *graph.Image { return b.img }

// Close releases run-private resources. Engines hold only per-run
// buffers (workers start and stop per Run), so there is nothing to tear
// down; the shared substrate is untouched.
func (b *runBase) Close() error { return nil }

// SetContext attaches a context bounding the run. Call before Run; a
// nil context (the default) runs unbounded.
func (b *runBase) SetContext(ctx context.Context) { b.ctx = ctx }

// NumVertices returns the vertex count.
func (b *runBase) NumVertices() int { return b.img.NumV }

// Directed reports whether the graph is directed.
func (b *runBase) Directed() bool { return b.img.Directed }

// Weighted reports whether the image carries 4-byte per-edge
// attributes (the weights PageVertex.AttrUint32 decodes). Algorithms
// that need weights check it in Init; the serve layer's capability
// validator (Caps.RequiresWeighted) rejects such queries earlier. SpMV
// sweeps do not deliver attributes (SpMVProgram's documented limitation).
func (b *runBase) Weighted() bool { return b.img.Weighted() }

// LoadTime returns how long loading the image onto the SSDs took
// (Table 2's "init time").
func (b *runBase) LoadTime() time.Duration { return b.loadTime }

// Iteration returns the current iteration (valid during Run).
func (b *runBase) Iteration() int { return b.iteration }

// Threads returns the configured worker count: the vertex engine's
// horizontal partitions, and on the SpMV engine the bound on goroutines
// applying one block stripe — min(Threads, grid side) for a ColumnLocal
// program, one otherwise. Programs that allocate per-thread scratch
// size it from here on both engines.
func (b *runBase) Threads() int { return b.cfg.Threads }

// OutDegree returns v's out-degree from the compact index.
func (b *runBase) OutDegree(v graph.VertexID) uint32 { return b.img.OutIndex.Degree(v) }

// InDegree returns v's in-degree (undirected graphs: same as OutDegree).
func (b *runBase) InDegree(v graph.VertexID) uint32 { return b.index(graph.InEdges).Degree(v) }

// index returns the index for a direction.
func (b *runBase) index(dir graph.EdgeDir) *graph.Index {
	if dir == graph.InEdges && b.img.InIndex != nil {
		return b.img.InIndex
	}
	return b.img.OutIndex
}

// file returns the SAFS file for a direction (SEM mode).
func (b *runBase) file(dir graph.EdgeDir) *safs.File {
	if dir == graph.InEdges && b.files.In != nil {
		return b.files.In
	}
	return b.files.Out
}

// data returns the in-memory bytes for a direction (in-memory mode).
func (b *runBase) data(dir graph.EdgeDir) []byte {
	if dir == graph.InEdges && b.img.InData != nil {
		return b.img.InData
	}
	return b.img.OutData
}

// iterationCap returns the run's iteration limit, which is the program's
// own (IterationLimiter); 0 or less runs to convergence.
func iterationCap(p Program) int {
	if lim, ok := p.(IterationLimiter); ok {
		return lim.MaxIterations()
	}
	return 0
}

// deviceWindow snapshots the array counters at the start of a run and
// returns the function that charges the run's window to st. Device
// reads and busy time are array-global (a device read triggered by one
// run may serve pages another run waits on), so under concurrent runs
// the two report substrate activity during this run's window. No-op in
// in-memory mode.
func (b *runBase) deviceWindow() func(st *RunStats) {
	if b.cfg.InMemory {
		return func(*RunStats) {}
	}
	base := b.cfg.FS.Array().Stats()
	return func(st *RunStats) {
		as := b.cfg.FS.Array().Stats()
		st.DeviceReads = as.Reads - base.Reads
		st.DeviceBusy = as.Busy - base.Busy
	}
}
