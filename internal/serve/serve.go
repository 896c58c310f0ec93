// Package serve implements a concurrent query layer over shared
// FlashGraph substrates: many algorithm runs execute simultaneously
// over named graphs that share one SAFS instance, page cache, and SSD
// array (the paper's core asset, amortized across graphs as well as
// queries).
//
// The Server is a query scheduler with admission control over the
// serving-QoS tier (internal/qos, Config.QoS). Submitted queries are
// classified into priority classes — interactive / analytic / batch,
// inferred from the algorithm's capabilities and parameters with a
// per-request override — and admitted into per-class queues with
// weighted dequeue and reserved execution slots, so point lookups
// never wait behind full-graph sweeps. At most MaxConcurrent queries
// execute at once and submissions beyond MaxQueued fail with
// ErrQueueFull. Finished results keyed by (graph image fingerprint,
// algo, canonical params, engine kind) serve repeated identical
// queries without recomputation, and single-flight coalescing runs N
// identical in-flight submissions once — a registered program is
// assumed to be a deterministic function of (image, params, engine).
// Per-tenant token-bucket quotas shed one tenant's overload without
// touching the others.
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
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flashgraph/internal/core"
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
	// re-submit hits) — a byte bound, not a query count, so many
	// small-graph results and few big-graph results both fit. Every
	// computed result is charged once, however many query records (the
	// run, its hits, its coalesced followers) reach it; past the budget
	// the least recently inserted-or-hit results are released for all of
	// them at once (summaries survive; later vector queries report
	// ErrResultReleased). 0 = default 64MiB; negative = retain nothing,
	// so nothing is ever served from cache either.
	ResultBytes int64
	// DefaultGraph names the graph unqualified requests (empty
	// Request.Graph) route to. Empty means "default" (the flashgraph
	// package's NewServer fills in the catalog's first graph).
	DefaultGraph string
	// Algorithms extends THIS server's registry beyond the process-wide
	// one (built-ins + Register calls) — the per-server alternative to
	// Register.
	Algorithms []AlgorithmSpec
	// QoS sizes the class policy and per-tenant quotas. The zero value
	// reserves max(1, MaxConcurrent/4) slots for interactive queries and
	// caps running batch sweeps at half the rest; ReservedSlots: -1 with
	// BatchSlots: -1 opens every slot to whatever is queued.
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

// query is the mutable server-side record: the snapshot readers get
// (its QueueWaitMS and ResultRetained are filled in by snapshotLocked)
// plus what never leaves the server. Server.mu guards every field that
// changes after Submit; Req, Class, engine, shared, key and done never
// do.
type query struct {
	Query
	prog   core.Program
	engine core.EngineKind
	shared *core.Shared

	key       qos.Key  // cache/single-flight identity
	followers []*query // coalesced submissions resolved at completion

	// cancel is set at dispatch; cancelRequested records a Cancel that
	// raced the dispatch window so the run starts pre-canceled.
	cancel          context.CancelFunc
	cancelRequested bool

	// res is the handle to the store entry holding the full result;
	// nil until done, dead once the store evicts the entry.
	res *qos.Entry[cachedResult]

	done chan struct{}
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

func (q *query) flight() flightKey { return flightKey{q.key, q.Class, q.Req.TimeoutMs} }

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
	mu         sync.Mutex
	graphs     map[string]*core.Shared
	graphOrder []string
	queries    map[int64]*query
	finished   []int64 // completion order, consumed from finHead
	finHead    int
	inflight   map[flightKey]*query // single-flight leaders
	nextID     int64
	closed     bool
	stats      Stats // the running counters; Stats() fills in the rest
	classDone  [qos.NumClasses]int64
	classFail  [qos.NumClasses]int64
	waitRing   [qos.NumClasses][]time.Duration
	waitPos    [qos.NumClasses]int

	wg sync.WaitGroup
}

// Open starts a server over one graph (registered under
// cfg.DefaultGraph) with cfg.MaxConcurrent scheduler goroutines. Add
// more graphs sharing the same substrate with AddGraph; stop the server
// with Close.
//
// The server's algorithm registry is a private snapshot of the default
// registry (the built-ins plus everything registered process-wide
// beforehand) plus cfg.Algorithms; extend it later with Register. Open
// fails only when Register rejects one of cfg.Algorithms.
func Open(shared *core.Shared, cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        defaultRegistry.Clone(),
		mq:         qos.NewMultiQueue[*query](cfg.QoS, cfg.MaxConcurrent, cfg.MaxQueued),
		store:      qos.NewCache(cfg.ResultBytes, func(v cachedResult) int64 { return v.rs.MemoryBytes() }),
		queries:    map[int64]*query{},
		inflight:   map[flightKey]*query{},
		graphs:     map[string]*core.Shared{cfg.DefaultGraph: shared},
		graphOrder: []string{cfg.DefaultGraph},
	}
	for _, spec := range cfg.Algorithms {
		if err := s.reg.Register(spec); err != nil {
			return nil, err
		}
	}
	if cfg.QoS.QuotaRate > 0 {
		s.quotas = qos.NewQuotas(cfg.QoS)
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.runLoop()
	}
	return s, nil
}

// New is Open for a cfg whose Algorithms cannot fail to register (none,
// or specs the caller wrote); it panics where Open returns an error.
func New(shared *core.Shared, cfg Config) *Server {
	s, err := Open(shared, cfg)
	if err != nil {
		panic(err)
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

// Register adds an algorithm to THIS server's registry (other servers
// and the process-wide default registry are untouched). Safe to call
// while the server is running; later submissions see the algorithm.
func (s *Server) Register(spec AlgorithmSpec) error {
	return s.reg.Register(spec)
}

// Submit admits a query and returns its ID. It fails fast on invalid
// requests, unknown graphs or algorithms, quota exhaustion
// (*qos.QuotaError, matching qos.ErrQuotaExceeded), ErrQueueFull at
// capacity, and ErrDraining/ErrClosed during shutdown.
//
// A submission whose (graph fingerprint, algo, canonical params,
// engine) key is in the result store returns an already-finished query
// (Query.Cache = "hit") without running or queueing anything, and one
// whose key is currently in flight attaches to that computation
// (Query.Cache = "coalesced") — N identical concurrent submissions run
// once.
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
			s.stats.Rejected++
			s.mu.Unlock()
			return 0, err
		}
	}

	q := &query{
		Query:  Query{Req: req, Class: class, State: StateQueued, Submitted: time.Now()},
		prog:   prog,
		engine: kind,
		shared: shared,
		done:   make(chan struct{}),
		// Fingerprint hashes the index (and, without a checksum trailer,
		// all edge data) on first use — keep it outside s.mu.
		key: qos.Key{
			Graph:  shared.Image().Fingerprint(),
			Algo:   req.Algo,
			Params: canonicalParams(req.Params),
			Engine: string(kind),
		},
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.stats.Draining {
		return 0, ErrDraining
	}
	// The ID is assigned before the queue push: a scheduler slot may
	// pick the query up the instant it lands.
	s.nextID++
	q.ID = s.nextID
	var hit outcome
	if hit.res, hit.val = s.store.Lookup(q.key); hit.res != nil {
		// An exact hit finishes the query at submit time, below.
		q.Cache = CacheHit
	} else if leader := s.inflight[q.flight()]; leader != nil {
		// Single-flight: attach to the identical in-flight computation.
		// Same class only — gluing an interactive request to a leader
		// queued at batch priority would invert its priority. (A hit
		// has no such hazard: finished results are class-independent.)
		q.Cache = CacheCoalesced
		q.prog = nil // never runs
		leader.followers = append(leader.followers, q)
		s.store.Coalesced()
	} else {
		if err := s.mq.Push(class, q); err != nil {
			s.stats.Rejected++
			if errors.Is(err, qos.ErrDraining) {
				return 0, ErrDraining
			}
			return 0, ErrQueueFull
		}
		s.inflight[q.flight()] = q
	}
	s.queries[q.ID] = q
	s.stats.Submitted++
	if hit.res != nil {
		s.finishLocked(q, hit)
	}
	return q.ID, nil
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
	q.Finished = o.at
	if q.Started.IsZero() {
		q.Started = o.at // never dispatched: the wait ended here
	}
	q.prog = nil // state beyond the ResultSet is never needed again
	rank := q.Class.Rank()
	if o.err != nil {
		q.State = StateFailed
		q.Error = o.err.Error()
		q.Timeout = errors.Is(o.err, context.DeadlineExceeded)
		q.Canceled = errors.Is(o.err, context.Canceled) || errors.Is(o.err, ErrCanceled)
		q.Corrupted = errors.Is(o.err, safs.ErrCorrupted)
		s.stats.Failed++
		s.classFail[rank]++
	} else {
		q.State = StateDone
		q.Stats, q.Result, q.res = o.val.stats, o.val.summary, o.res
		s.stats.Completed++
		s.classDone[rank]++
	}
	if fk := q.flight(); s.inflight[fk] == q {
		delete(s.inflight, fk)
	}
	s.finished = append(s.finished, q.ID)
	for _, f := range q.followers {
		s.finishLocked(f, o)
	}
	q.followers = nil
	close(q.done)
	s.evictHistoryLocked()
}

// runLoop is one scheduler slot: it pulls eligible queries from the
// class-aware admission queue and executes each on a fresh per-run
// engine over the query's graph.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		q, rank, ok := s.mq.Pop()
		if !ok {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		s.stats.Running++
		s.stats.PeakRunning = max(s.stats.PeakRunning, s.stats.Running)
		q.State, q.Started = StateRunning, time.Now()
		s.recordWaitLocked(q.Class, q.Started.Sub(q.Submitted))
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
			o.val.rs = result.From(q.prog, q.Req.Algo)
			o.val.summary = o.val.rs.Summary()
		}

		// Release the execution slot before the bookkeeping below: the
		// next eligible query can start while counters settle.
		s.mq.Done(rank)

		s.mu.Lock()
		s.stats.Running--
		if o.err == nil {
			o.res = s.store.Put(q.key, o.val)
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
// never evicted. Only the record goes: its result stays in the store
// under its key for a later identical Submit to hit. s.finished records
// completion order with a head cursor, so eviction is O(evicted)
// amortized — no rescans on the serving hot path.
func (s *Server) evictHistoryLocked() {
	for len(s.finished)-s.finHead > s.cfg.MaxHistory {
		id := s.finished[s.finHead]
		s.finHead++
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
	if q.Req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.Req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	eng, err := q.shared.NewEngine(q.engine)
	if err != nil {
		return core.RunStats{}, err
	}
	defer eng.Close()
	eng.SetContext(ctx)
	st, err = eng.Run(q.prog)
	st.Algorithm = q.Req.Algo
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
	if q.State == StateDone || q.State == StateFailed {
		return nil // idempotent: already finished
	}
	q.cancelRequested = true
	switch {
	case q.cancel != nil:
		// Running (or mid-dispatch with the context armed): stop it at
		// the next boundary; the scheduler slot records the outcome.
		q.cancel()
	case q.Cache == CacheCoalesced:
		// A waiting follower: detach it from its leader, fail it alone.
		leader := s.inflight[q.flight()]
		leader.followers = slices.DeleteFunc(leader.followers, func(f *query) bool { return f == q })
		s.finishLocked(q, outcome{err: ErrCanceled})
	case s.mq.Remove(q.Class, func(x *query) bool { return x == q }):
		// Queued: its spot frees now.
		s.finishLocked(q, outcome{err: ErrCanceled})
	}
	// Otherwise q is inside the dispatch window: cancelRequested makes
	// the dispatch arm a pre-canceled context.
	return nil
}

// Drain stops admission without stopping service: Submit fails with
// ErrDraining (503 over HTTP) while queued and in-flight queries run
// to completion and every read endpoint keeps answering. Callers that
// want to block until the queues empty follow with Close. Drain is
// idempotent and safe alongside Close.
func (s *Server) Drain() {
	s.mu.Lock()
	s.stats.Draining = true
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
