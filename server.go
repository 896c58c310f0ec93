package flashgraph

// This file is the public serving API: the capability-typed algorithm
// registry (AlgorithmSpec / Caps / Register) and the Server that
// exposes any registered vertex program — built-in or user-defined —
// over the same scheduler and HTTP surface fg-serve runs. The types
// alias internal/serve verbatim, so the eight built-ins and a custom
// program in user code travel through the identical path.
//
// Defining an algorithm takes three steps:
//
//  1. implement Algorithm (Init/Run/RunOnVertex/RunOnMessage) against
//     the public aliases (RunContext, Ctx, PageVertex, Message), and
//     optionally Result() *ResultSet for typed, checksummed results;
//  2. describe it with an AlgorithmSpec: a name, one-line doc, the
//     Caps it requires of a graph (checked centrally — no validation
//     code in your constructor), a typed params prototype, and a New
//     function that decodes those params with DecodeParams;
//  3. Register it process-wide, or on one server with Server.Register.
//
// See examples/custom for a complete program (label-propagation
// community detection) served over HTTP.

import (
	"encoding/json"
	"fmt"

	"flashgraph/internal/core"
	"flashgraph/internal/qos"
	"flashgraph/internal/result"
	"flashgraph/internal/serve"
)

// Serving-layer type aliases: user code and the engine share one set
// of types, so a spec built here is exactly what the daemon serves.
type (
	// AlgorithmSpec describes one servable algorithm: name, doc, the
	// capabilities it requires of a graph, a typed params prototype,
	// and the per-query constructor. See Register.
	AlgorithmSpec = serve.AlgorithmSpec
	// Caps declares what an algorithm requires of the graph it runs on
	// (RequiresUndirected, RequiresWeighted, NeedsSrc, ...); one
	// central validator checks every requirement before the
	// algorithm's constructor runs.
	Caps = serve.Caps
	// GraphMeta describes the target image a query's algorithm is
	// being built for (name, vertex/edge counts, directedness,
	// weightedness).
	GraphMeta = serve.GraphMeta
	// AlgoInfo is one registry entry as reported by Server.Algorithms
	// and GET /algos: name, doc, caps, and param schema.
	AlgoInfo = serve.AlgoInfo
	// ParamInfo is one entry of an algorithm's param schema.
	ParamInfo = serve.ParamInfo
	// Request names a graph, an algorithm, and its raw typed params —
	// the unit of submission, identical over HTTP and in-process.
	Request = serve.Request
	// Query is an immutable snapshot of one query's lifecycle.
	Query = serve.Query
	// QueryState is a query's lifecycle position (queued, running,
	// done, failed).
	QueryState = serve.State
	// ServerStats summarizes a server's traffic counters.
	ServerStats = serve.Stats
	// GraphInfo describes one served graph (GET /graphs).
	GraphInfo = serve.GraphInfo
	// ServerConfig sizes a Server. The zero value is a working server:
	// 4 slots, one of them reserved for interactive queries, and a 64MiB
	// result store that serves identical re-submits without running them
	// (a negative ResultBytes retains nothing, so nothing ever hits) — a
	// registered program is assumed to be a deterministic function of
	// (image, params, engine). An empty DefaultGraph means the catalog's
	// first graph.
	ServerConfig = serve.Config
	// QoSConfig sets the scheduler's per-tenant quotas
	// (ServerConfig.QoS). The class policy beside them is fixed: dequeue
	// weights 16 / 4 / 1, max(1, slots/4) slots reserved for interactive
	// queries, and running batch sweeps capped at half the rest.
	QoSConfig = qos.Config
	// QueryClass is a query's priority class: interactive, analytic,
	// or batch. Inferred per query from the algorithm's capabilities
	// and effective parameters; override with Request.Class or
	// ?class= on POST /queries.
	QueryClass = qos.Class
	// ClassStats breaks server traffic down for one priority class
	// (ServerStats.Classes): queue depth, occupied slots, completions,
	// and queue-wait percentiles.
	ClassStats = serve.ClassStats
	// CacheStats reports the result store (ServerStats.ResultCache): hits,
	// misses, evictions, bytes (= RetainedBytes), coalesced submissions.
	CacheStats = qos.CacheStats
	// TenantStats snapshots one tenant's quota bucket
	// (ServerStats.Tenants).
	TenantStats = qos.TenantStats
	// QuotaError reports a quota denial: which tenant and how long
	// until a token refills. errors.Is(err, ErrQuotaExceeded) matches
	// it; over HTTP it is 429 with Retry-After.
	QuotaError = qos.QuotaError
	// ResultHistogram is a fixed-width binning of a result vector.
	ResultHistogram = result.Histogram
	// Server schedules algorithm queries over a Catalog's graphs with
	// admission control, per-query stats, and byte-budgeted typed
	// result retention — the engine behind fg-serve, as a library.
	// Handler exposes the full HTTP surface (POST /queries, GET /algos,
	// typed result endpoints); Submit/Wait/Cancel/ResultSet serve the
	// same queries in-process.
	//
	// A Server made by NewServer snapshots the catalog's graphs and the
	// process-wide algorithm registry: graphs added to the catalog and
	// algorithms Registered afterwards are not visible to it (use
	// Server.Register for late algorithm additions).
	Server = serve.Server
	// RunContext is the per-run engine surface handed to
	// Algorithm.Init (vertex counts, seed activation, weightedness,
	// engine kind) — what custom programs name the Init parameter. It
	// is the core.ExecutionEngine interface: the same Init serves the
	// message-passing engine and the SpMV engine.
	RunContext = core.ExecutionEngine
	// ExecutionEngine is a pluggable run engine over one loaded graph:
	// the message-passing vertex engine or the streaming SpMV engine,
	// stamped out per query. RunContext is the same type, named for the
	// Init-parameter role.
	ExecutionEngine = core.ExecutionEngine
	// EngineKind names an execution model ("vertex" or "spmv").
	EngineKind = core.EngineKind
	// SpMVProgram is the dense-sweep form of an algorithm, runnable by
	// the SpMV engine (Caps.SupportsSpMV declares a spec returns one).
	SpMVProgram = core.SpMVProgram
	// Program is what an execution engine runs — the Init-only surface
	// both Algorithm and SpMVProgram embed.
	Program = core.Program
)

// Execution-engine kinds: RunStats.Engine values, and the values
// Request.Engine may check (a graph's layout picks its engine).
const (
	// EngineVertex is the message-passing vertex-program engine.
	EngineVertex = core.EngineVertex
	// EngineSpMV is the streaming dense-sweep engine.
	EngineSpMV = core.EngineSpMV
)

// Query lifecycle states.
const (
	QueryQueued  = serve.StateQueued
	QueryRunning = serve.StateRunning
	QueryDone    = serve.StateDone
	QueryFailed  = serve.StateFailed
)

// RequestVersion is the current request schema version.
const RequestVersion = serve.RequestVersion

// Priority classes (Request.Class / ?class= values; QoSConfig keys).
const (
	// ClassInteractive is for point queries a user is waiting on (BFS,
	// SSSP, betweenness from a source): highest dequeue weight plus
	// reserved execution slots.
	ClassInteractive = qos.ClassInteractive
	// ClassAnalytic is the default mid tier: full-graph algorithms
	// with modest iteration counts.
	ClassAnalytic = qos.ClassAnalytic
	// ClassBatch is for long sweeps (high iteration counts): lowest
	// weight and a cap on simultaneously running batch queries.
	ClassBatch = qos.ClassBatch
)

// ErrQuotaExceeded matches every *QuotaError via errors.Is — a
// tenant's token bucket is empty.
var ErrQuotaExceeded = qos.ErrQuotaExceeded

// Typed parameter structs of the built-in algorithms (marshal them
// into Request.Params with MarshalParams).
type (
	// SrcParams parameterizes bfs, bc, and sssp.
	SrcParams = serve.SrcParams
	// PageRankParams parameterizes pagerank.
	PageRankParams = serve.PageRankParams
	// KCoreParams parameterizes kcore.
	KCoreParams = serve.KCoreParams
	// PPRParams parameterizes ppagerank.
	PPRParams = serve.PPRParams
)

// Register publishes an algorithm process-wide: every Server (and
// fg-serve daemon) constructed afterwards can run it. The built-in
// algorithms are registered through this exact path. Registration
// fails for duplicate names (the error lists what is registered),
// reserved names, and malformed specs; use Server.Register to extend
// a single server instead.
func Register(spec AlgorithmSpec) error { return serve.Register(spec) }

// MustRegister is Register for init-time use: it panics on error.
func MustRegister(spec AlgorithmSpec) {
	if err := Register(spec); err != nil {
		panic(err)
	}
}

// Algorithms describes every process-wide registered algorithm —
// name, doc, capability requirements, and param schema — sorted by
// name.
func Algorithms() []AlgoInfo { return serve.DefaultAlgorithms() }

// DecodeParams strictly decodes a request's raw params JSON into a
// typed params struct (pass a pointer): unknown fields and type
// mismatches fail with an error naming the offending field and the
// accepted parameters. AlgorithmSpec constructors should decode with
// it so custom algorithms report parameter errors exactly like the
// built-ins. Empty, absent, and "null" params decode to the zero
// value.
func DecodeParams(raw json.RawMessage, into any) error {
	return serve.DecodeParams(raw, into)
}

// MarshalParams renders a typed params value as the raw JSON a
// Request carries — the inverse of DecodeParams for programmatic
// submitters:
//
//	srv.Submit(flashgraph.Request{Algo: "bfs",
//		Params: flashgraph.MarshalParams(flashgraph.SrcParams{Src: 3})})
func MarshalParams(v any) json.RawMessage { return serve.MarshalParams(v) }

// NewServer starts a query server over every graph currently in cat.
// Close the server before closing the catalog.
func NewServer(cat *Catalog, cfg ServerConfig) (*Server, error) {
	names := cat.Graphs()
	if len(names) == 0 {
		return nil, fmt.Errorf("flashgraph: catalog has no graphs; Add one before NewServer")
	}
	if cfg.DefaultGraph == "" {
		cfg.DefaultGraph = names[0]
	}
	defEng, ok := cat.Engine(cfg.DefaultGraph)
	if !ok {
		return nil, fmt.Errorf("flashgraph: default graph %q not in catalog (have %v)", cfg.DefaultGraph, names)
	}
	srv, err := serve.Open(defEng.Shared(), cfg)
	if err != nil {
		return nil, fmt.Errorf("flashgraph: %w", err)
	}
	for _, name := range names {
		if name == cfg.DefaultGraph {
			continue
		}
		eng, ok := cat.Engine(name)
		if !ok {
			srv.Close()
			return nil, fmt.Errorf("flashgraph: graph %q vanished from catalog", name)
		}
		if err := srv.AddGraph(name, eng.Shared()); err != nil {
			srv.Close()
			return nil, fmt.Errorf("flashgraph: %w", err)
		}
	}
	return srv, nil
}
