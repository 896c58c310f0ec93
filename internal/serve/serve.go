// Package serve implements a concurrent query layer over shared
// FlashGraph substrates: many algorithm runs execute simultaneously
// over named graphs that share one SAFS instance, page cache, and SSD
// array (the paper's core asset, amortized across graphs as well as
// queries).
//
// The Server is a query scheduler with admission control and an
// optional serving-QoS tier (internal/qos, Config.QoS). Submitted
// queries are classified into priority classes — interactive /
// analytic / batch, inferred from the algorithm's capabilities and
// parameters with a per-request override — and admitted into
// per-class queues with weighted dequeue and reserved execution
// slots, so point lookups never wait behind full-graph sweeps.
// Finished results keyed by (graph image fingerprint, algo, canonical
// params, engine kind) serve repeated identical queries without
// recomputation, and single-flight coalescing runs N identical
// in-flight submissions once. Per-tenant token-bucket
// quotas shed one tenant's overload without touching the others. With
// the QoS tier disabled (the zero Config.QoS), the scheduler is the
// seed-era single FIFO: at most MaxConcurrent queries execute at once
// and submissions beyond MaxQueued fail with ErrQueueFull.
//
// Results follow the internal/result contract: every finished query
// publishes a ResultSet summary (scalars, vector metadata, top-5,
// checksum), and the full per-vertex vectors stay queryable — point
// lookup, paginated top-K, histogram — until the one result store's
// byte budget (Config.ResultBytes) evicts them, least recently
// inserted-or-hit first. One path runs every query:
//
//	Submit → hit | attach | queue → run → finish → store
//
// A hit finishes at submit time on the stored entry, an attached
// follower finishes with its leader, and finish is the only place a
// query's outcome is recorded. The HTTP layer over this lives in
// http.go; cmd/fg-serve is a thin shell around both.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/qos"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
)

// State is a query's lifecycle position.
type State string

const (
	// StateQueued means the query is admitted and waiting for a slot.
	StateQueued State = "queued"
	// StateRunning means the query is executing on a run engine.
	StateRunning State = "running"
	// StateDone means the query finished; Stats and Result are valid.
	StateDone State = "done"
	// StateFailed means the query errored; Error is set.
	StateFailed State = "failed"
)

// Submission and result-access errors.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// MaxQueued (admission control: shed load, don't buffer unboundedly).
	ErrQueueFull = errors.New("serve: query queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrDraining rejects submissions after Drain: in-flight and queued
	// queries finish, nothing new is admitted (the HTTP layer answers
	// 503 so load balancers fail over during shutdown).
	ErrDraining = errors.New("serve: server draining")
	// ErrUnknownQuery is returned by Wait and the result accessors for
	// an unknown ID.
	ErrUnknownQuery = errors.New("serve: unknown query id")
	// ErrUnknownGraph reports a Request.Graph not in the server's
	// catalog.
	ErrUnknownGraph = errors.New("serve: unknown graph")
	// ErrDuplicateGraph rejects AddGraph for a name already registered.
	ErrDuplicateGraph = errors.New("serve: graph already registered")
	// ErrNotFinished reports a result access on a query that has not
	// completed successfully.
	ErrNotFinished = errors.New("serve: query has no result yet")
	// ErrResultReleased reports a result access after the query's full
	// vectors were evicted by the retained-result byte budget (the
	// summary in Query.Result survives).
	ErrResultReleased = errors.New("serve: result vectors released by byte budget")
	// ErrCanceled is the failure recorded on a query stopped by Cancel
	// (DELETE /queries/{id} over HTTP) before or during execution.
	ErrCanceled = errors.New("serve: query canceled")
)

// Config sizes the scheduler.
type Config struct {
	// MaxConcurrent bounds queries executing simultaneously (each gets
	// its own per-run engine over the shared substrate). Default 4.
	MaxConcurrent int
	// MaxQueued bounds admitted-but-not-running queries. Submissions
	// beyond it fail with ErrQueueFull. Default 64.
	MaxQueued int
	// MaxHistory bounds retained finished query records; the oldest
	// finished records are dropped beyond it, keeping a long-lived
	// daemon's memory flat. Default 1024.
	MaxHistory int
	// ResultBytes is the one budget for finished full ResultSets (the
	// O(V) vectors behind point lookup and top-K, and what an identical
	// re-submit hits when the QoS tier is on) — a byte bound, not a
	// query count, so many small-graph results and few big-graph results
	// both fit. Every computed result is charged once, however many
	// query records (the run, its hits, its coalesced followers) reach
	// it; past the budget the least recently inserted-or-hit results are
	// released for all of them at once (summaries survive; later vector
	// queries report ErrResultReleased). 0 = default 64MiB; negative =
	// retain nothing, so nothing is ever served from cache either.
	ResultBytes int64
	// DefaultGraph names the graph passed to New, the one unqualified
	// requests (empty Request.Graph) route to. Default "default".
	DefaultGraph string
	// QoS configures the serving-QoS tier: priority-class admission,
	// cache hits and single-flight coalescing, and per-tenant
	// quotas. The zero value is DISABLED (seed-era single FIFO) so
	// existing embedders keep exact behavior; set QoS.Enabled to opt
	// in.
	QoS qos.Config
}

func (c *Config) setDefaults() {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 64
	}
	if c.MaxHistory == 0 {
		c.MaxHistory = 1024
	}
	if c.ResultBytes == 0 {
		c.ResultBytes = 64 << 20
	}
	if c.DefaultGraph == "" {
		c.DefaultGraph = "default"
	}
}

// RequestVersion is the current request schema version. Version 0
// (field omitted) is treated as 1. There is NO compatibility path for
// the pre-versioning flat request shape: legacy bodies with top-level
// src/k/iters are rejected by the HTTP layer's strict decoding.
const RequestVersion = 1

// Request names a graph, an algorithm, and its typed parameters.
type Request struct {
	// Version is the request schema version (0 or 1 today).
	Version int `json:"version,omitempty"`
	// Graph routes the query to a named graph in the server's catalog;
	// empty means the default graph.
	Graph string `json:"graph,omitempty"`
	// Algo selects the algorithm by its registered name (GET /algos
	// lists the server's registry).
	Algo string `json:"algo"`
	// Params carries the algorithm's own typed parameters as raw JSON;
	// the algorithm's constructor decodes them strictly (unknown or
	// mistyped fields are rejected with the accepted-params list).
	Params json.RawMessage `json:"params,omitempty"`
	// Engine overrides the execution engine: "vertex" (message passing)
	// or "spmv" (streaming dense sweeps). Empty routes by capability:
	// algorithms declaring Caps.SupportsSpMV run on the SpMV engine,
	// everything else on the vertex engine. Requesting "spmv" for an
	// algorithm without an SpMV form fails with ErrBadParam; the vertex
	// engine on a block-encoded graph (explicitly requested or routed by
	// default) fails with ErrIncompatibleGraph — the message-passing
	// engine needs per-vertex edge records. The HTTP layer also accepts
	// this as a ?engine= query parameter on POST /queries.
	Engine string `json:"engine,omitempty"`
	// Tenant attributes the query to a tenant for quota accounting and
	// stats. The HTTP layer fills it from the X-Tenant header when the
	// body leaves it empty. Empty is the anonymous tenant (one shared
	// bucket).
	Tenant string `json:"tenant,omitempty"`
	// Class overrides the inferred priority class: "interactive",
	// "analytic", or "batch". Empty infers from the algorithm's
	// capabilities and effective parameters (qos.InferClass). The HTTP
	// layer also accepts ?class= on POST /queries.
	Class string `json:"class,omitempty"`
	// TimeoutMs bounds the query's execution time in milliseconds
	// (0 = unbounded). The deadline starts when the query is dispatched
	// to an engine — queue wait does not count — and is enforced at
	// iteration/stripe boundaries, so a runaway query stops at the next
	// quiescent point, fails with a deadline error, and reports 504 over
	// HTTP while the server keeps serving its siblings.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Validate checks the request's shape — version, algorithm presence,
// and the class override — independent of any graph. Capability
// checks run in the registry's central validator and parameter
// decoding in the algorithm's constructor, both at submit time.
func (r Request) Validate() error {
	if r.Version < 0 || r.Version > RequestVersion {
		return fmt.Errorf("serve: unsupported request version %d (max %d)", r.Version, RequestVersion)
	}
	if r.Algo == "" {
		return fmt.Errorf("serve: request missing algo")
	}
	if r.Class != "" {
		if _, err := qos.ParseClass(r.Class); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMs)
	}
	return nil
}

// Query is an immutable snapshot of one query's lifecycle, returned by
// Get, Wait, and List.
type Query struct {
	ID        int64          `json:"id"`
	Req       Request        `json:"request"`
	State     State          `json:"state"`
	Class     qos.Class      `json:"class,omitempty"`
	Submitted time.Time      `json:"submitted"`
	Started   time.Time      `json:"started,omitzero"`
	Finished  time.Time      `json:"finished,omitzero"`
	Stats     core.RunStats  `json:"stats,omitzero"`
	Result    map[string]any `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
	// QueueWaitMS is how long the query waited for an execution slot
	// (still growing while queued; frozen at dispatch).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Cache reports how the result was produced: "" means this query
	// ran the computation, "hit" that the result store served it,
	// "coalesced" that it attached to an identical in-flight query
	// (single-flight; set from the moment it attaches).
	Cache string `json:"cache,omitempty"`
	// ResultRetained reports whether the full result vectors are still
	// queryable (lookup / top-K) or have been released by the byte
	// budget.
	ResultRetained bool `json:"result_retained,omitempty"`
	// Timeout marks a failed query stopped by its TimeoutMs deadline
	// (HTTP surfaces it as 504 Gateway Timeout).
	Timeout bool `json:"timeout,omitempty"`
	// Canceled marks a failed query stopped by Cancel / DELETE.
	Canceled bool `json:"canceled,omitempty"`
	// Corrupted marks a failed query that hit a data-integrity error
	// (safs.ErrCorrupted): the stored bytes failed checksum verification
	// — the error is loud, never a silent wrong answer. HTTP surfaces it
	// as 500.
	Corrupted bool `json:"corrupted,omitempty"`
}

// Cache provenance values (Query.Cache).
const (
	// CacheHit marks a query answered from the result cache.
	CacheHit = "hit"
	// CacheCoalesced marks a query that attached to an identical
	// in-flight computation.
	CacheCoalesced = "coalesced"
)

// query is the mutable server-side record. Server.mu guards every
// field that changes after Submit; req, class, engine, shared, key and
// done never do.
type query struct {
	id     int64
	req    Request
	class  qos.Class
	prog   core.Program
	engine core.EngineKind
	shared *core.Shared

	key       qos.Key  // cache/single-flight identity; zero with the QoS tier off
	followers []*query // coalesced submissions resolved at completion

	// cancel is set at dispatch; cancelRequested records a Cancel that
	// raced the dispatch window so the run starts pre-canceled.
	cancel          context.CancelFunc
	cancelRequested bool

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	stats     core.RunStats
	summary   map[string]any
	errMsg    string
	timeout   bool   // failed by TimeoutMs deadline
	canceled  bool   // failed by Cancel
	corrupted bool   // failed by a checksum-verification error
	cache     string // "", CacheHit, CacheCoalesced
	// res is the handle to the store entry holding the full result;
	// nil until done, dead once the store evicts the entry.
	res *qos.Entry[cachedResult]

	done chan struct{}
}

// snapshotLocked copies q out (called with s.mu held).
func (s *Server) snapshotLocked(q *query) Query {
	wait := time.Since(q.submitted)
	if !q.started.IsZero() {
		wait = q.started.Sub(q.submitted)
	}
	_, retained := s.store.Value(q.res)
	return Query{
		ID:             q.id,
		Req:            q.req,
		State:          q.state,
		Class:          q.class,
		Submitted:      q.submitted,
		Started:        q.started,
		Finished:       q.finished,
		Stats:          q.stats,
		Result:         q.summary,
		Error:          q.errMsg,
		QueueWaitMS:    float64(wait) / float64(time.Millisecond),
		Cache:          q.cache,
		ResultRetained: retained,
		Timeout:        q.timeout,
		Canceled:       q.canceled,
		Corrupted:      q.corrupted,
	}
}

// GraphInfo describes one named graph in the server's catalog.
type GraphInfo struct {
	Name     string `json:"name"`
	Default  bool   `json:"default"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Directed bool   `json:"directed"`
	Weighted bool   `json:"weighted"`
	// Encoding names the image's on-SSD edge-list layout ("raw",
	// "delta", or "block").
	Encoding string `json:"encoding"`
	SSDBytes int64  `json:"ssd_bytes"`
}

// ClassStats summarizes one priority class's traffic (Stats.Classes).
type ClassStats struct {
	Class     qos.Class `json:"class"`
	Queued    int       `json:"queued"`
	Running   int       `json:"running"`
	Completed int64     `json:"completed"`
	Failed    int64     `json:"failed"`
	// Queue-wait percentiles over a sliding window of recent
	// dispatches (milliseconds).
	WaitP50MS float64 `json:"wait_p50_ms"`
	WaitP95MS float64 `json:"wait_p95_ms"`
	WaitP99MS float64 `json:"wait_p99_ms"`
}

// Stats summarizes the server's traffic.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Running   int   `json:"running"`
	Queued    int   `json:"queued"`
	// PeakRunning is the maximum number of queries observed executing
	// simultaneously since the server started.
	PeakRunning int `json:"peak_running"`
	// RetainedResults / RetainedBytes report the full result sets the
	// one store holds under the Config.ResultBytes budget.
	RetainedResults int   `json:"retained_results"`
	RetainedBytes   int64 `json:"retained_bytes"`
	// QoSEnabled reports whether the QoS tier is on; Draining whether
	// admission has been stopped (Drain/Close).
	QoSEnabled bool `json:"qos_enabled"`
	Draining   bool `json:"draining"`
	// Classes breaks traffic down per priority class: queue depth,
	// occupied slots, completions, and queue-wait percentiles. With
	// the QoS tier disabled the single FIFO's depth is reported under
	// "interactive".
	Classes []ClassStats `json:"classes,omitempty"`
	// ResultCache reports the same store as a cache (hits, misses,
	// bytes, coalesced submissions); nil when the QoS tier is off.
	ResultCache *qos.CacheStats `json:"result_cache,omitempty"`
	// Tenants reports per-tenant quota state (current tokens,
	// admitted, denied), sorted by tenant; nil when quotas are off.
	Tenants []qos.TenantStats `json:"tenants,omitempty"`
}

// flightKey identifies one in-flight computation for single-flight
// coalescing: the cache key plus the priority class, so an identical
// request in a higher class schedules on its own class's terms instead
// of inheriting the leader's queue position, plus the deadline, so a
// follower can only fail on a budget it asked for itself. (The result
// cache keys on key alone: a finished result has neither.)
type flightKey struct {
	key       qos.Key
	class     qos.Class
	timeoutMs int
}

func (q *query) flight() flightKey { return flightKey{q.key, q.class, q.req.TimeoutMs} }

// cachedResult is the unit the result store retains: everything a
// cache hit needs to answer a query as if it had run — the immutable
// ResultSet, its summary, and the run's stats.
type cachedResult struct {
	rs      *result.ResultSet
	summary map[string]any
	stats   core.RunStats
}

// waitWindow bounds the per-class queue-wait sample ring behind the
// Stats percentiles.
const waitWindow = 512

// Server schedules queries over one or more named graphs sharing a
// substrate.
type Server struct {
	cfg Config
	reg *Registry // private: seeded from the default registry at New

	mq     *qos.MultiQueue[*query]
	store  *qos.Cache[cachedResult] // the one owner of finished results
	quotas *qos.Quotas              // nil: quotas off

	// mu is the package's one lock; the only nesting is mu -> a mutex
	// inside qos (the store's, the queue's).
	mu          sync.Mutex
	graphs      map[string]*core.Shared
	graphOrder  []string
	queries     map[int64]*query
	finished    []int64 // completion order, consumed from finHead
	finHead     int
	inflight    map[flightKey]*query // single-flight leaders
	nextID      int64
	closed      bool
	draining    bool
	submitted   int64
	rejected    int64
	completed   int64
	failed      int64
	running     int
	peakRunning int
	classDone   [qos.NumClasses]int64
	classFail   [qos.NumClasses]int64
	waitRing    [qos.NumClasses][]time.Duration
	waitPos     [qos.NumClasses]int

	wg sync.WaitGroup
}

// New starts a server over one graph (registered under
// cfg.DefaultGraph) with cfg.MaxConcurrent scheduler goroutines. Add
// more graphs sharing the same substrate with AddGraph; stop the server
// with Close.
//
// The server's algorithm registry is a private snapshot of the default
// registry (the built-ins plus everything registered process-wide
// beforehand); extend it for this server alone with Register.
func New(shared *core.Shared, cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        defaultRegistry.Clone(),
		mq:         qos.NewMultiQueue[*query](cfg.QoS, cfg.MaxConcurrent, cfg.MaxQueued),
		store:      qos.NewCache(cfg.ResultBytes, func(v cachedResult) int64 { return v.rs.MemoryBytes() }),
		queries:    map[int64]*query{},
		graphs:     map[string]*core.Shared{cfg.DefaultGraph: shared},
		graphOrder: []string{cfg.DefaultGraph},
	}
	if cfg.QoS.Enabled {
		s.inflight = map[flightKey]*query{}
		if cfg.QoS.QuotaRate > 0 {
			s.quotas = qos.NewQuotas(cfg.QoS)
		}
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.runLoop()
	}
	return s
}

// AddGraph registers another named graph. To realize the paper's
// amortization across graphs, its Shared should be built over the same
// safs.FS (page cache, SSD array) as the others — the flashgraph
// Catalog does exactly that.
func (s *Server) AddGraph(name string, shared *core.Shared) error {
	if name == "" {
		return fmt.Errorf("serve: graph name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.graphs[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateGraph, name)
	}
	s.graphs[name] = shared
	s.graphOrder = append(s.graphOrder, name)
	return nil
}

// Graphs lists the catalog in registration order.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphOrder))
	for _, name := range s.graphOrder {
		img := s.graphs[name].Image()
		out = append(out, GraphInfo{
			Name:     name,
			Default:  name == s.cfg.DefaultGraph,
			Vertices: img.NumV,
			Edges:    img.NumEdges,
			Directed: img.Directed,
			Weighted: img.Weighted(),
			Encoding: img.Encoding.String(),
			SSDBytes: img.DataSize(),
		})
	}
	return out
}

// Shared returns the substrate of the named graph ("" = default).
func (s *Server) Shared(name string) (*core.Shared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharedLocked(name)
}

func (s *Server) sharedLocked(name string) (*core.Shared, error) {
	if name == "" {
		name = s.cfg.DefaultGraph
	}
	sh, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownGraph, name, s.graphOrder)
	}
	return sh, nil
}

// Register adds an algorithm to THIS server's registry (other servers
// and the process-wide default registry are untouched). Safe to call
// while the server is running; later submissions see the algorithm.
func (s *Server) Register(spec AlgorithmSpec) error {
	return s.reg.Register(spec)
}

// Algorithms describes this server's registered algorithms — name,
// doc, capability requirements, and param schema — sorted by name (the
// GET /algos payload).
func (s *Server) Algorithms() []AlgoInfo {
	return s.reg.Infos()
}

// AlgorithmNames lists this server's registered algorithm names.
func (s *Server) AlgorithmNames() []string {
	return s.reg.Names()
}

// prepare validates req end to end — schema, graph, algorithm,
// capabilities and parameters against the target image — builds the
// program instance through the registry, resolves which execution
// engine will run it, and classifies it into a priority class.
func (s *Server) prepare(req Request) (core.Program, core.EngineKind, *core.Shared, qos.Class, error) {
	if err := req.Validate(); err != nil {
		return nil, "", nil, "", err
	}
	name := req.Graph
	if name == "" {
		name = s.cfg.DefaultGraph
	}
	shared, err := s.Shared(name)
	if err != nil {
		return nil, "", nil, "", err
	}
	prog, err := s.reg.build(req, metaOf(name, shared.Image()))
	if err != nil {
		return nil, "", nil, "", err
	}
	spec, _ := s.reg.Spec(req.Algo) // build above proved it exists
	kind, err := resolveEngine(req, spec, shared)
	if err != nil {
		return nil, "", nil, "", err
	}
	class := classify(req, spec)
	return prog, kind, shared, class, nil
}

// classify resolves a request's priority class: the explicit override
// when present (Validate proved it parses), else inference from the
// algorithm's declared capabilities and its effective iteration count.
func classify(req Request, spec AlgorithmSpec) qos.Class {
	if req.Class != "" {
		c, _ := qos.ParseClass(req.Class)
		return c
	}
	return qos.InferClass(spec.Caps.NeedsSrc, effectiveIters(spec, req.Params))
}

// effectiveIters returns the iteration count a request will actually
// run: the "iters" param when set, else the algorithm's declared
// default (the `default:` tag surfaced in its param schema), else 0
// (not an iterative algorithm). The peek is lenient like Caps.check's
// src peek — strict decoding stays the constructor's job.
func effectiveIters(spec AlgorithmSpec, params json.RawMessage) int {
	var p struct {
		Iters int `json:"iters"`
	}
	if len(params) > 0 {
		_ = json.Unmarshal(params, &p)
	}
	if p.Iters > 0 {
		return p.Iters
	}
	for _, pi := range paramSchema(spec.Params) {
		if pi.Name == "iters" {
			if d, ok := pi.Default.(int64); ok {
				return int(d)
			}
		}
	}
	return 0
}

// canonicalParams renders raw params JSON in canonical form (compact,
// sorted keys) for the cache key, so field order and whitespace do not
// split identical requests. Empty and "null" both canonicalize to "".
func canonicalParams(raw json.RawMessage) string {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
		return ""
	}
	var v any
	if err := json.Unmarshal(trimmed, &v); err != nil {
		return string(trimmed) // prepare validated it; defensive fallback
	}
	b, err := json.Marshal(v) // object keys marshal sorted
	if err != nil {
		return string(trimmed)
	}
	return string(b)
}

// resolveEngine picks the execution engine for one query: the explicit
// Request.Engine when set, otherwise SpMV for algorithms declaring
// Caps.SupportsSpMV and the vertex engine for the rest. Impossible
// pairings fail here, at submit time: spmv for an algorithm without an
// SpMV form is ErrBadParam, and the vertex engine over a block-encoded
// image (which has no per-vertex edge records) is ErrIncompatibleGraph.
func resolveEngine(req Request, spec AlgorithmSpec, shared *core.Shared) (core.EngineKind, error) {
	kind := core.EngineVertex
	if spec.Caps.SupportsSpMV {
		kind = core.EngineSpMV
	}
	if req.Engine != "" {
		k, err := core.ParseEngineKind(req.Engine)
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrBadParam, err)
		}
		if k == core.EngineSpMV && !spec.Caps.SupportsSpMV {
			return "", fmt.Errorf("%w: algorithm %q has no SpMV form (Caps.SupportsSpMV is unset)", ErrBadParam, req.Algo)
		}
		kind = k
	}
	if kind == core.EngineVertex && shared.Image().Encoding == graph.EncodingBlock {
		return "", fmt.Errorf("%w: the vertex engine needs per-vertex edge records; block-encoded graphs serve only engine=spmv", ErrIncompatibleGraph)
	}
	return kind, nil
}

// Validate reports whether req could be submitted — the schema is
// valid, the graph and algorithm exist, and the parameters are
// compatible with that graph — without admitting anything. Drivers use
// it to reject a bad workload before generating load.
func (s *Server) Validate(req Request) error {
	_, _, _, _, err := s.prepare(req)
	return err
}

// Submit admits a query and returns its ID. It fails fast on invalid
// requests, unknown graphs or algorithms, quota exhaustion
// (*qos.QuotaError, matching qos.ErrQuotaExceeded), ErrQueueFull at
// capacity, and ErrDraining/ErrClosed during shutdown.
//
// With the QoS tier on, a submission whose (graph fingerprint, algo,
// canonical params, engine) key is cached returns an
// already-finished query (Query.Cache = "hit") without running or
// queueing anything, and one whose key is currently in flight
// attaches to that computation (Query.Cache = "coalesced") — N
// identical concurrent submissions run once.
func (s *Server) Submit(req Request) (int64, error) {
	prog, kind, shared, class, err := s.prepare(req)
	if err != nil {
		return 0, err
	}

	// Quotas guard the front door: a denied tenant costs one bucket
	// probe, nothing else. (Cache hits charge quota too — the quota
	// meters admissions, not compute.)
	if s.quotas != nil {
		if err := s.quotas.Allow(req.Tenant); err != nil {
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
			return 0, err
		}
	}

	q := &query{
		req:       req,
		class:     class,
		prog:      prog,
		engine:    kind,
		shared:    shared,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if s.cfg.QoS.Enabled {
		// Fingerprint hashes the index (and, without a checksum trailer,
		// all edge data) on first use — keep it outside s.mu.
		q.key = qos.Key{
			Graph:  shared.Image().Fingerprint(),
			Algo:   req.Algo,
			Params: canonicalParams(req.Params),
			Engine: string(kind),
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.draining {
		return 0, ErrDraining
	}
	// The ID is assigned before the queue push: a scheduler slot may
	// pick the query up the instant it lands.
	s.nextID++
	q.id = s.nextID
	var hit outcome
	if s.cfg.QoS.Enabled {
		if hit.res, hit.val = s.store.Lookup(q.key); hit.res != nil {
			// An exact hit finishes the query at submit time, below.
			q.cache = CacheHit
		} else if leader := s.inflight[q.flight()]; leader != nil {
			// Single-flight: attach to the identical in-flight computation.
			// Same class only — gluing an interactive request to a leader
			// queued at batch priority would invert its priority. (A hit
			// has no such hazard: finished results are class-independent.)
			q.cache = CacheCoalesced
			q.prog = nil // never runs
			leader.followers = append(leader.followers, q)
			s.store.Coalesced()
		}
	}
	if q.cache == "" {
		if err := s.mq.Push(class, q); err != nil {
			s.rejected++
			if errors.Is(err, qos.ErrDraining) {
				return 0, ErrDraining
			}
			return 0, ErrQueueFull
		}
		if s.cfg.QoS.Enabled {
			s.inflight[q.flight()] = q
		}
	}
	s.queries[q.id] = q
	s.submitted++
	if hit.res != nil {
		s.finishLocked(q, hit)
	}
	return q.id, nil
}

// outcome is how a query ended: err, or the store entry holding its
// result (nil when the byte budget did not admit it — the summary and
// stats in val survive regardless).
type outcome struct {
	err error
	val cachedResult
	res *qos.Entry[cachedResult]
	at  time.Time // stamped by the first finish, inherited by followers
}

// finishLocked is the one place a query's ending is recorded — a run,
// a hit, a coalesced follower, a cancel before dispatch (called with
// s.mu held). It derives the failure flags from the error, settles
// the counters, resolves q's followers with the same outcome, and only
// then wakes waiters, who need s.mu to read anything.
func (s *Server) finishLocked(q *query, o outcome) {
	if o.at.IsZero() {
		o.at = time.Now()
	}
	q.finished = o.at
	if q.started.IsZero() {
		q.started = o.at // never dispatched: the wait ended here
	}
	q.prog = nil // state beyond the ResultSet is never needed again
	rank := q.class.Rank()
	if o.err != nil {
		q.state = StateFailed
		q.errMsg = o.err.Error()
		q.timeout = errors.Is(o.err, context.DeadlineExceeded)
		q.canceled = errors.Is(o.err, context.Canceled) || errors.Is(o.err, ErrCanceled)
		q.corrupted = errors.Is(o.err, safs.ErrCorrupted)
		s.failed++
		s.classFail[rank]++
	} else {
		q.state = StateDone
		q.stats, q.summary, q.res = o.val.stats, o.val.summary, o.res
		s.completed++
		s.classDone[rank]++
	}
	if fk := q.flight(); s.inflight[fk] == q {
		delete(s.inflight, fk)
	}
	s.finished = append(s.finished, q.id)
	for _, f := range q.followers {
		s.finishLocked(f, o)
	}
	q.followers = nil
	close(q.done)
	s.evictHistoryLocked()
}

// runLoop is one scheduler slot: it pulls eligible queries from the
// class-aware admission queue (a plain FIFO when the QoS tier is off)
// and executes each on a fresh per-run engine over the query's graph.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		q, rank, ok := s.mq.Pop()
		if !ok {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		s.running++
		s.peakRunning = max(s.peakRunning, s.running)
		q.state, q.started = StateRunning, time.Now()
		s.recordWaitLocked(q.class, q.started.Sub(q.submitted))
		// Arm cancellation inside s.mu: Cancel either finds q still in
		// the queue (and removes it) or finds q.cancel set — a Cancel
		// that raced the dispatch window left cancelRequested instead.
		q.cancel = cancel
		if q.cancelRequested {
			cancel()
		}
		s.mu.Unlock()

		// Run, then build the result set and its summary, outside every
		// lock: checksums and top-N walk full O(V) result vectors, and
		// snapshot readers (Get/List) must not stall behind that.
		var o outcome
		o.val.stats, o.err = s.execute(q, ctx)
		cancel()
		if o.err == nil {
			o.val.rs = result.From(q.prog, q.req.Algo)
			o.val.summary = o.val.rs.Summary()
		}

		// Release the execution slot before the bookkeeping below: the
		// next eligible query can start while counters settle.
		s.mq.Done(rank)

		s.mu.Lock()
		s.running--
		switch {
		case o.err != nil: // nothing to store
		case s.cfg.QoS.Enabled:
			o.res = s.store.Put(q.key, o.val)
		default:
			o.res = s.store.Add(o.val)
		}
		s.finishLocked(q, o)
		s.mu.Unlock()
	}
}

// recordWaitLocked adds one dispatch's queue wait to the class's
// sliding sample window (called with s.mu held).
func (s *Server) recordWaitLocked(c qos.Class, wait time.Duration) {
	i := c.Rank()
	if len(s.waitRing[i]) < waitWindow {
		s.waitRing[i] = append(s.waitRing[i], wait)
		return
	}
	s.waitRing[i][s.waitPos[i]%waitWindow] = wait
	s.waitPos[i]++
}

// evictHistoryLocked drops the oldest finished queries beyond
// MaxHistory (called with s.mu held). Queued and running queries are
// never evicted. A dropped record gives up its result handle, so a
// result nothing else can reach (no key: the QoS tier is off) leaves
// the store with it. s.finished records completion order with a head
// cursor, so eviction is O(evicted) amortized — no rescans on the
// serving hot path.
func (s *Server) evictHistoryLocked() {
	for len(s.finished)-s.finHead > s.cfg.MaxHistory {
		id := s.finished[s.finHead]
		s.finHead++
		s.store.Drop(s.queries[id].res)
		delete(s.queries, id)
	}
	// Compact the consumed head once mostly dead.
	if s.finHead > 64 && s.finHead > len(s.finished)/2 {
		s.finished = append(s.finished[:0], s.finished[s.finHead:]...)
		s.finHead = 0
	}
}

// execute runs one query on the engine prepare resolved for it,
// converting engine panics (e.g. a fatal device read error, or an
// algorithm rejecting the graph) into a failed query instead of killing
// the scheduler slot. ctx carries cancellation from Cancel; the
// request's TimeoutMs deadline is layered on here, so queue wait never
// counts against it. The engine checks the context at iteration/stripe
// boundaries, so a stop lands at a quiescent point.
func (s *Server) execute(q *query, ctx context.Context) (st core.RunStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("query panicked: %v", r)
		}
	}()
	if q.req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	eng, err := q.shared.NewEngine(q.engine)
	if err != nil {
		return core.RunStats{}, err
	}
	defer eng.Close()
	eng.SetContext(ctx)
	st, err = eng.Run(q.prog)
	st.Algorithm = q.req.Algo
	return st, err
}

// Cancel stops a query. A queued query is removed from the admission
// queue (its spot frees immediately — it never occupied an execution
// slot) and fails with ErrCanceled, along with any coalesced followers
// attached to it; a coalesced follower detaches and fails alone,
// leaving its leader running; a running query has its context canceled
// and stops at the next iteration/stripe boundary, failing with a
// context.Canceled error. Cancel on a finished query is a no-op;
// unknown IDs report ErrUnknownQuery.
func (s *Server) Cancel(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	if !ok {
		return ErrUnknownQuery
	}
	if q.state == StateDone || q.state == StateFailed {
		return nil // idempotent: already finished
	}
	q.cancelRequested = true
	switch {
	case q.cancel != nil:
		// Running (or mid-dispatch with the context armed): stop it at
		// the next boundary; the scheduler slot records the outcome.
		q.cancel()
	case q.cache == CacheCoalesced:
		// A waiting follower: detach it from its leader, fail it alone.
		leader := s.inflight[q.flight()]
		leader.followers = slices.DeleteFunc(leader.followers, func(f *query) bool { return f == q })
		s.finishLocked(q, outcome{err: ErrCanceled})
	case s.mq.Remove(q.class, func(x *query) bool { return x == q }):
		// Queued: its spot frees now.
		s.finishLocked(q, outcome{err: ErrCanceled})
	}
	// Otherwise q is inside the dispatch window: cancelRequested makes
	// the dispatch arm a pre-canceled context.
	return nil
}

// Get snapshots a query by ID.
func (s *Server) Get(id int64) (Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	if !ok {
		return Query{}, false
	}
	return s.snapshotLocked(q), true
}

// Wait blocks until the query finishes (done or failed) and returns its
// final snapshot. A finished query already evicted from the bounded
// history (Config.MaxHistory) reports ErrUnknownQuery.
func (s *Server) Wait(id int64) (Query, error) {
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return Query{}, ErrUnknownQuery
	}
	<-q.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(q), nil
}

// ResultSet returns a finished query's full typed result. It fails with
// ErrUnknownQuery, ErrNotFinished (queued/running/failed), or
// ErrResultReleased (evicted by the byte budget). The returned set is
// immutable and safe for concurrent readers.
func (s *Server) ResultSet(id int64) (*result.ResultSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	switch {
	case !ok:
		return nil, ErrUnknownQuery
	case q.state == StateFailed:
		return nil, fmt.Errorf("%w: query failed: %s", ErrNotFinished, q.errMsg)
	case q.state != StateDone:
		return nil, ErrNotFinished
	}
	v, ok := s.store.Value(q.res)
	if !ok {
		return nil, ErrResultReleased
	}
	return v.rs, nil
}

// Lookup is the point query: the named vector's value at vertex for a
// finished query ("" selects the algorithm's default vector).
func (s *Server) Lookup(id int64, vector string, vertex int) (result.Entry, error) {
	rs, err := s.ResultSet(id)
	if err != nil {
		return result.Entry{}, err
	}
	return rs.Lookup(vector, vertex)
}

// TopK returns ranks [offset, offset+k) of the named vector, value
// descending with deterministic tie-breaks — the pagination contract.
func (s *Server) TopK(id int64, vector string, k, offset int) ([]result.Entry, error) {
	rs, err := s.ResultSet(id)
	if err != nil {
		return nil, err
	}
	return rs.TopK(vector, k, offset)
}

// Histogram bins the named vector of a finished query.
func (s *Server) Histogram(id int64, vector string, bins int) (result.Histogram, error) {
	rs, err := s.ResultSet(id)
	if err != nil {
		return result.Histogram{}, err
	}
	return rs.Histogram(vector, bins)
}

// List snapshots all queries in submission order (IDs are assigned in
// that order).
func (s *Server) List() []Query {
	s.mu.Lock()
	out := make([]Query, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, s.snapshotLocked(q))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots the server's traffic counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	depths, running := s.mq.Load()
	store := s.store.Stats()
	st := Stats{
		Submitted:       s.submitted,
		Rejected:        s.rejected,
		Completed:       s.completed,
		Failed:          s.failed,
		Running:         s.running,
		PeakRunning:     s.peakRunning,
		RetainedResults: store.Entries,
		RetainedBytes:   store.Bytes,
		QoSEnabled:      s.cfg.QoS.Enabled,
		Draining:        s.draining,
	}
	st.Classes = make([]ClassStats, 0, qos.NumClasses)
	for i, cl := range qos.Classes {
		st.Queued += depths[i]
		cs := ClassStats{
			Class:     cl,
			Queued:    depths[i],
			Running:   running[i],
			Completed: s.classDone[i],
			Failed:    s.classFail[i],
		}
		if n := len(s.waitRing[i]); n > 0 {
			sorted := append([]time.Duration(nil), s.waitRing[i]...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			cs.WaitP50MS = durMS(quantile(sorted, 0.50))
			cs.WaitP95MS = durMS(quantile(sorted, 0.95))
			cs.WaitP99MS = durMS(quantile(sorted, 0.99))
		}
		st.Classes = append(st.Classes, cs)
	}
	if s.cfg.QoS.Enabled {
		st.ResultCache = &store
	}
	if s.quotas != nil {
		st.Tenants = s.quotas.Stats()
	}
	return st
}

// quantile indexes a sorted duration slice at q.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Draining reports whether admission has stopped (Drain or Close) —
// the one flag a readiness probe needs, without building Stats.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission without stopping service: Submit fails with
// ErrDraining (503 over HTTP) while queued and in-flight queries run
// to completion and every read endpoint keeps answering. Callers that
// want to block until the queues empty follow with Close. Drain is
// idempotent and safe alongside Close.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.mq.Drain()
}

// Close stops admission, drains queued queries to completion, and waits
// for the scheduler goroutines to exit. Reads (Get, List, ResultSet,
// Stats) keep working afterwards — Close ends computation, not
// observation.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.Drain()
	s.wg.Wait()
}
