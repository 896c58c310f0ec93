package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/qos"
)

// releaseOnce guards a gate's release channel so a t.Fatal mid-test
// still unblocks the deferred srv.Close (defers run LIFO: register it
// AFTER the Close defer).
func releaseOnce(release chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// TestSingleFlightCoalescing proves N identical concurrent submissions
// run ONCE: with the leader blocked inside its run, identical submits
// attach to it instead of occupying slots or queue capacity, and all
// resolve with the leader's result.
func TestSingleFlightCoalescing(t *testing.T) {
	srv, entered, release := gatedServer(t, Config{MaxConcurrent: 2, MaxQueued: 8})
	defer srv.Close()
	release2 := releaseOnce(release)
	defer release2()

	leader, err := srv.Submit(Request{Algo: "gate"})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the leader is running, holding one slot

	var followers []int64
	for i := 0; i < 3; i++ {
		id, err := srv.Submit(Request{Algo: "gate"})
		if err != nil {
			t.Fatalf("identical submit %d: %v", i, err)
		}
		followers = append(followers, id)
	}
	st := srv.Stats()
	if st.Running != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v: followers occupied slots or queue", st)
	}
	if st.ResultCache == nil || st.ResultCache.Coalesced != 3 {
		t.Fatalf("result cache stats = %+v, want 3 coalesced", st.ResultCache)
	}
	select {
	case <-entered:
		t.Fatal("a coalesced follower entered its own run")
	case <-time.After(50 * time.Millisecond):
	}

	release2()
	lq, err := srv.Wait(leader)
	if err != nil || lq.State != StateDone || lq.Cache != "" {
		t.Fatalf("leader = %+v, %v; want done and computed", lq, err)
	}
	lrs, err := srv.ResultSet(leader)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range followers {
		q, err := srv.Wait(id)
		if err != nil || q.State != StateDone {
			t.Fatalf("follower %d: %+v, %v", id, q, err)
		}
		if q.Cache != CacheCoalesced {
			t.Fatalf("follower %d cache = %q, want %q", id, q.Cache, CacheCoalesced)
		}
		rs, err := srv.ResultSet(id)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Checksum() != lrs.Checksum() {
			t.Fatalf("follower %d checksum %s != leader %s", id, rs.Checksum(), lrs.Checksum())
		}
	}
}

// TestCacheHitBitIdentical proves the result cache's identity claim:
// re-submitting the identical request answers from the cache — no
// second execution — with a checksum-identical ResultSet, while any
// change to params, engine, or algorithm misses.
func TestCacheHitBitIdentical(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{MaxConcurrent: 2})
	defer srv.Close()

	req := Request{Algo: "pagerank", Params: MarshalParams(PageRankParams{Iters: 5})}
	first, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := srv.Wait(first)
	if err != nil || q1.State != StateDone || q1.Cache != "" {
		t.Fatalf("first run = %+v, %v", q1, err)
	}
	rs1, _ := srv.ResultSet(first)

	second, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := srv.Wait(second)
	if err != nil || q2.State != StateDone {
		t.Fatalf("re-submit = %+v, %v", q2, err)
	}
	if q2.Cache != CacheHit {
		t.Fatalf("re-submit cache = %q, want %q", q2.Cache, CacheHit)
	}
	rs2, err := srv.ResultSet(second)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Checksum() != rs1.Checksum() {
		t.Fatalf("cache hit checksum %s != computed %s", rs2.Checksum(), rs1.Checksum())
	}
	// The hit ran nothing: completions grew, but the engine never saw a
	// second pagerank (Stats.Elapsed of a hit is the leader's).
	st := srv.Stats()
	if st.ResultCache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.ResultCache.Hits)
	}
	// Whitespace and field order canonicalize into the same key.
	third, err := srv.Submit(Request{Algo: "pagerank", Params: json.RawMessage(" {\"iters\": 5} ")})
	if err != nil {
		t.Fatal(err)
	}
	if q3, _ := srv.Wait(third); q3.Cache != CacheHit {
		t.Fatalf("reformatted params missed the cache (cache=%q)", q3.Cache)
	}
	// Different params are a different computation.
	fourth, err := srv.Submit(Request{Algo: "pagerank", Params: MarshalParams(PageRankParams{Iters: 6})})
	if err != nil {
		t.Fatal(err)
	}
	if q4, _ := srv.Wait(fourth); q4.Cache != "" {
		t.Fatalf("different params answered from cache (cache=%q)", q4.Cache)
	}
}

// TestCacheEvictionUnderBytesPressure squeezes the result budget to one
// entry: inserting a second result evicts the first, and re-submitting
// the evicted request recomputes instead of hitting.
func TestCacheEvictionUnderBytesPressure(t *testing.T) {
	shared := buildShared(t, 2)
	// Measure one result's footprint first, with a roomy cache.
	probe := New(shared, Config{})
	id, err := probe.Submit(Request{Algo: "bfs", Params: MarshalParams(SrcParams{Src: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Wait(id); err != nil {
		t.Fatal(err)
	}
	rs, err := probe.ResultSet(id)
	if err != nil {
		t.Fatal(err)
	}
	one := rs.MemoryBytes()
	probe.Close()

	// Budget: one result fits, two do not.
	srv := New(shared, Config{ResultBytes: one + one/2})
	defer srv.Close()
	submit := func(src graph.VertexID) Query {
		t.Helper()
		id, err := srv.Submit(Request{Algo: "bfs", Params: MarshalParams(SrcParams{Src: src})})
		if err != nil {
			t.Fatal(err)
		}
		q, err := srv.Wait(id)
		if err != nil || q.State != StateDone {
			t.Fatalf("bfs src=%d: %+v, %v", src, q, err)
		}
		return q
	}
	submit(0)
	if q := submit(0); q.Cache != CacheHit {
		t.Fatalf("warm re-submit cache = %q, want hit", q.Cache)
	}
	submit(1) // inserting src=1 must evict src=0
	st := srv.Stats()
	if st.ResultCache.Evictions == 0 {
		t.Fatalf("cache stats = %+v, want evictions under bytes pressure", st.ResultCache)
	}
	if st.ResultCache.Bytes > st.ResultCache.Budget {
		t.Fatalf("cache bytes %d over budget %d", st.ResultCache.Bytes, st.ResultCache.Budget)
	}
	if q := submit(0); q.Cache == CacheHit {
		t.Fatal("evicted entry still answered from cache")
	}
}

// TestCacheNoCrossGraphCollision serves two different graphs and
// submits the identical algo+params to each: the second graph must
// compute its own answer, never inherit the first's — the cache keys
// on the image's content fingerprint, not the catalog name.
func TestCacheNoCrossGraphCollision(t *testing.T) {
	build := func(scale int, seed uint64) *core.Shared {
		a := graph.FromEdges(1<<scale, gen.RMAT(scale, 4, seed), true)
		a.Dedup()
		img := graph.BuildImage(a, 0, nil)
		sh, err := core.NewShared(img, core.Config{Threads: 1, InMemory: true, RangeShift: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a, b := build(6, 11), build(6, 22)
	if a.Image().Fingerprint() == b.Image().Fingerprint() {
		t.Fatal("distinct graphs share a fingerprint")
	}

	srv := New(a, Config{DefaultGraph: "a"})
	defer srv.Close()
	if err := srv.AddGraph("b", b); err != nil {
		t.Fatal(err)
	}
	run := func(graphName string) Query {
		t.Helper()
		id, err := srv.Submit(Request{Graph: graphName, Algo: "wcc"})
		if err != nil {
			t.Fatal(err)
		}
		q, err := srv.Wait(id)
		if err != nil || q.State != StateDone {
			t.Fatalf("wcc on %s: %+v, %v", graphName, q, err)
		}
		return q
	}
	qa := run("a")
	qb := run("b")
	if qb.Cache != "" {
		t.Fatalf("graph b answered from graph a's cache entry (cache=%q)", qb.Cache)
	}
	if qa.Result["checksum"] == qb.Result["checksum"] {
		t.Fatal("distinct graphs produced one checksum — collision evidence")
	}
	// Same graph re-asked IS a hit.
	if q := run("a"); q.Cache != CacheHit {
		t.Fatalf("same-graph re-submit cache = %q, want hit", q.Cache)
	}
}

// TestClassInference pins the class taxonomy end to end: inference
// from Caps + effective params, the declared-default path, and the
// per-request override.
func TestClassInference(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{})
	defer srv.Close()

	cases := []struct {
		req  Request
		want qos.Class
	}{
		{Request{Algo: "bfs"}, qos.ClassInteractive},
		{Request{Algo: "wcc"}, qos.ClassAnalytic},
		// pagerank's declared default (30 iters) files it as batch even
		// with params unset.
		{Request{Algo: "pagerank"}, qos.ClassBatch},
		{Request{Algo: "pagerank", Params: MarshalParams(PageRankParams{Iters: 5})}, qos.ClassAnalytic},
		{Request{Algo: "labelprop"}, qos.ClassAnalytic}, // declared default 10
		{Request{Algo: "bfs", Class: "batch"}, qos.ClassBatch},
		{Request{Algo: "pagerank", Class: "interactive"}, qos.ClassInteractive},
	}
	for _, c := range cases {
		id, err := srv.Submit(c.req)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		q, err := srv.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if q.Class != c.want {
			t.Errorf("%s (params %s, override %q): class %s, want %s",
				c.req.Algo, c.req.Params, c.req.Class, q.Class, c.want)
		}
	}
	if err := (Request{Algo: "bfs", Class: "urgent"}).Validate(); err == nil {
		t.Fatal("unknown class override validated")
	}
}

// TestInteractiveBypassesBatchBacklog is the scheduling pillar in
// miniature, as dispatch order rather than a latency ratio: with both
// slots saturated-or-queued by batch work, an interactive query
// dispatches into the reserved slot immediately instead of queueing
// behind the backlog.
func TestInteractiveBypassesBatchBacklog(t *testing.T) {
	srv, entered, release := gatedServer(t, Config{MaxConcurrent: 2, MaxQueued: 8})
	defer srv.Close()
	release2 := releaseOnce(release)
	defer release2()

	// Gates with DISTINCT params (so they never coalesce).
	gate := func(n string, class string) int64 {
		t.Helper()
		id, err := srv.Submit(Request{Algo: "gate", Class: class,
			Params: json.RawMessage(`{"n":` + n + `}`)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// One batch gate runs in the unreserved slot (batchCap >= 1), one
	// queues — the reserved slot must stay empty for interactive.
	b1 := gate("1", "batch")
	<-entered
	b2 := gate("2", "batch")
	select {
	case <-entered:
		t.Fatal("second batch query entered the reserved slot")
	case <-time.After(50 * time.Millisecond):
	}

	// The interactive query must start NOW, with batch still blocked.
	i1 := gate("3", "interactive")
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("interactive query never dispatched while batch held the backlog")
	}
	st := srv.Stats()
	var interactive ClassStats
	for _, cs := range st.Classes {
		if cs.Class == qos.ClassInteractive {
			interactive = cs
		}
	}
	if interactive.Running != 1 {
		t.Fatalf("class stats = %+v, want 1 interactive running", st.Classes)
	}
	if q, _ := srv.Get(b2); q.State != StateQueued {
		t.Fatalf("queued batch query is %s with the interactive one running, want still queued", q.State)
	}
	release2()
	for _, id := range []int64{b1, b2, i1} {
		if q, err := srv.Wait(id); err != nil || q.State != StateDone {
			t.Fatalf("query %d: %v %v", id, q.State, err)
		}
	}
}

// TestZeroConfigServesRepeatsFromStore: the store path needs no opt-in.
// On a zero-Config server an identical re-submit is a hit carrying the
// first run's checksum, while a different source runs.
func TestZeroConfigServesRepeatsFromStore(t *testing.T) {
	srv := New(buildShared(t, 2), Config{})
	defer srv.Close()
	first := runBFS(t, srv, 0, "")
	again := runBFS(t, srv, 0, CacheHit)
	runBFS(t, srv, 1, "")
	q1, _ := srv.Get(first)
	q2, _ := srv.Get(again)
	if q1.Result["checksum"] == nil || q1.Result["checksum"] != q2.Result["checksum"] {
		t.Fatalf("hit checksum %v, first run's %v", q2.Result["checksum"], q1.Result["checksum"])
	}
	if st := srv.Stats(); st.ResultCache == nil || st.ResultCache.Hits != 1 || st.RetainedResults != 2 {
		t.Fatalf("stats = %+v (cache %+v), want 1 hit over 2 retained results", st, st.ResultCache)
	}
}

// TestDrain: admission stops, in-flight work finishes, reads survive.
func TestDrain(t *testing.T) {
	srv, entered, release := gatedServer(t, Config{MaxConcurrent: 1, MaxQueued: 4})
	release2 := releaseOnce(release)
	defer release2()

	id, err := srv.Submit(Request{Algo: "gate"})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	srv.Drain()
	srv.Drain() // idempotent
	if _, err := srv.Submit(Request{Algo: "gate"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if st := srv.Stats(); !st.Draining {
		t.Fatalf("stats = %+v, want Draining", st)
	}

	release2()
	srv.Close() // blocks until the in-flight query finishes
	q, err := srv.Wait(id)
	if err != nil || q.State != StateDone {
		t.Fatalf("drained query = %+v, %v; want done", q, err)
	}
	// Reads keep answering after Close.
	if _, ok := srv.Get(id); !ok {
		t.Fatal("Get failed after Close")
	}
}

// TestClassOverrideHTTP pins the ?class= query-parameter override and
// the class/queue-wait fields in the query JSON.
func TestClassOverrideHTTP(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{})
	defer srv.Close()
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/queries?class=batch", "application/json",
		strings.NewReader(`{"algo":"bfs","params":{"src":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var q Query
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Class != qos.ClassBatch {
		t.Fatalf("query class = %q, want batch (?class= override)", q.Class)
	}
	if _, err := srv.Wait(q.ID); err != nil {
		t.Fatal(err)
	}
	bad, err := http.Post(ts.URL+"/queries?class=urgent", "application/json",
		strings.NewReader(`{"algo":"bfs","params":{"src":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class status = %d, want 400", bad.StatusCode)
	}
}
