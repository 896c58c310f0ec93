package serve

// The read side: query snapshots, result access, the catalog and
// registry listings, and the traffic counters.

import (
	"fmt"
	"sort"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/qos"
	"flashgraph/internal/result"
)

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

// snapshotLocked copies q out (called with s.mu held).
func (s *Server) snapshotLocked(q *query) Query {
	out := q.Query
	wait := time.Since(q.Submitted)
	if !q.Started.IsZero() {
		wait = q.Started.Sub(q.Submitted)
	}
	out.QueueWaitMS = durMS(wait)
	_, out.ResultRetained = s.store.Value(q.res)
	return out
}

// GraphInfo describes one named graph in the server's catalog: what an
// algorithm's constructor sees of it, plus its place in the catalog.
type GraphInfo struct {
	GraphMeta
	Default  bool  `json:"default"`
	SSDBytes int64 `json:"ssd_bytes"`
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
	// Rejected counts ErrQueueFull refusals; those of a draining or
	// closed server (ErrDraining, ErrClosed) are not counted.
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
	// Draining reports whether admission has been stopped (Drain/Close).
	Draining bool `json:"draining"`
	// Classes breaks traffic down per priority class: queue depth,
	// occupied slots, completions, and queue-wait percentiles.
	Classes []ClassStats `json:"classes,omitempty"`
	// ResultCache reports the same store as a cache (hits, misses,
	// bytes, coalesced submissions); never nil.
	ResultCache *qos.CacheStats `json:"result_cache,omitempty"`
}

// Graphs lists the catalog in registration order.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphOrder))
	for _, name := range s.graphOrder {
		img := s.graphs[name].Image()
		out = append(out, GraphInfo{
			GraphMeta: metaOf(name, img),
			Default:   name == s.cfg.DefaultGraph,
			SSDBytes:  img.DataSize(),
		})
	}
	return out
}

// Shared returns the substrate of the named graph ("" = default).
func (s *Server) Shared(name string) (*core.Shared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		name = s.cfg.DefaultGraph
	}
	sh, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownGraph, name, s.graphOrder)
	}
	return sh, nil
}

// Algorithms describes this server's registered algorithms — name,
// doc, capability requirements, and param schema — sorted by name (the
// GET /algos payload).
func (s *Server) Algorithms() []AlgoInfo {
	return s.reg.Infos()
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
	case q.State == StateFailed:
		return nil, fmt.Errorf("%w: query failed: %s", ErrNotFinished, q.Error)
	case q.State != StateDone:
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
	st := s.stats
	st.RetainedResults, st.RetainedBytes, st.ResultCache = store.Entries, store.Bytes, &store
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
	return s.stats.Draining
}
