package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// crawlAlgo is a deliberately slow vertex program: one vertex stays
// active, sleeping each iteration — the controllable long-running
// query the timeout and cancellation tests need. Its first Run sends
// its "n" param on started, so a test learns that a crawl is running
// from the crawl itself.
type crawlAlgo struct {
	pause   time.Duration
	iters   int
	n       int
	started chan<- int
	once    sync.Once
}

func (c *crawlAlgo) Init(eng core.ExecutionEngine)                            { eng.ActivateSeed(0) }
func (c *crawlAlgo) MaxIterations() int                                       { return c.iters }
func (c *crawlAlgo) RunOnMessage(*core.Ctx, graph.VertexID, core.Message)     {}
func (c *crawlAlgo) RunOnVertex(*core.Ctx, graph.VertexID, *graph.PageVertex) {}
func (c *crawlAlgo) Run(ctx *core.Ctx, v graph.VertexID) {
	c.once.Do(func() { c.started <- c.n })
	time.Sleep(c.pause)
	ctx.Activate(v) // stay active: the run ends only by cap, deadline, or cancel
}

// registerCrawl registers crawl on srv and returns the channel each
// crawl's first Run sends its "n" on. The buffer outlasts every crawl a
// test starts, so no Run waits on a reader.
func registerCrawl(t *testing.T, srv *Server, pause time.Duration, iters int) <-chan int {
	t.Helper()
	started := make(chan int, 64)
	err := srv.Register(AlgorithmSpec{
		Name: "crawl",
		Doc:  "test-only slow walker",
		New: func(params json.RawMessage, g GraphMeta) (core.Program, error) {
			var p struct {
				N int `json:"n"`
			}
			if err := DecodeParams(params, &p); err != nil {
				return nil, err
			}
			return &crawlAlgo{pause: pause, iters: iters, n: p.N, started: started}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return started
}

// TestTimeoutQueryReports504: a query whose TimeoutMs expires stops at
// the next iteration boundary, records the Timeout flag, and surfaces
// as 504 Gateway Timeout — while the server keeps serving.
func TestTimeoutQueryReports504(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{MaxConcurrent: 2})
	defer srv.Close()
	registerCrawl(t, srv, 5*time.Millisecond, 10_000)
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	id, err := srv.Submit(Request{Version: 1, Algo: "crawl", TimeoutMs: 30})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/queries/%d?wait=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var q Query
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.State != StateFailed || !q.Timeout || q.Canceled {
		t.Fatalf("query = state %s timeout %v canceled %v, want failed+timeout", q.State, q.Timeout, q.Canceled)
	}

	// The sibling path is untouched: a normal query still completes.
	id2, err := srv.Submit(Request{Version: 1, Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if q2, err := srv.Wait(id2); err != nil || q2.State != StateDone {
		t.Fatalf("follow-up query: %+v, %v", q2, err)
	}
}

// TestCancelRunningQuery: DELETE on a running query stops it at the
// next boundary with the Canceled flag; cancel is idempotent.
func TestCancelRunningQuery(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{MaxConcurrent: 2})
	defer srv.Close()
	started := registerCrawl(t, srv, 5*time.Millisecond, 10_000)
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	id, err := srv.Submit(Request{Version: 1, Algo: "crawl"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // dispatch is asynchronous: wait until it actually runs
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	q, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.State != StateFailed || !q.Canceled || q.Timeout {
		t.Fatalf("query = state %s canceled %v timeout %v, want failed+canceled", q.State, q.Canceled, q.Timeout)
	}
	// Idempotent on a finished query.
	if err := srv.Cancel(id); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
}

// TestCancelQueuedReleasesSlot: canceling a query that is still queued
// removes it from the admission queue immediately — it fails with the
// Canceled flag without ever running, and the later submission behind
// it still gets the slot.
func TestCancelQueuedReleasesSlot(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{MaxConcurrent: 1, ResultBytes: -1})
	defer srv.Close()
	registerCrawl(t, srv, 5*time.Millisecond, 10_000)

	blocker, err := srv.Submit(Request{Version: 1, Algo: "crawl"})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := srv.Submit(Request{Version: 1, Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := srv.Submit(Request{Version: 1, Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}

	// The victim is queued behind the blocker; cancel resolves it NOW,
	// not when the blocker finishes.
	if err := srv.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	done := make(chan Query, 1)
	go func() {
		q, _ := srv.Wait(victim)
		done <- q
	}()
	select {
	case q := <-done:
		if q.State != StateFailed || !q.Canceled {
			t.Fatalf("canceled-while-queued query = state %s canceled %v", q.State, q.Canceled)
		}
		if q.Stats.EdgeRequests != 0 {
			t.Fatal("canceled-while-queued query did engine work")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled queued query still blocked behind the running one")
	}

	// Unblock the slot; the survivor (behind the canceled victim) runs.
	if err := srv.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	if q, err := srv.Wait(survivor); err != nil || q.State != StateDone {
		t.Fatalf("survivor query: %+v, %v", q, err)
	}
}

// faultShared builds a Shared over FaultStore-wrapped devices, armed
// with the given config from the start of serving (the stores are
// disarmed during the image load so the data lands intact).
func faultShared(t *testing.T, fc ssd.FaultConfig, cacheBytes int64) (*core.Shared, []*ssd.FaultStore) {
	t.Helper()
	edges := gen.RMAT(9, 6, 77)
	a := graph.FromEdges(1<<9, edges, true)
	a.Dedup()
	img := graph.BuildImage(a, 0, nil)

	stores := make([]ssd.Store, 4)
	var faults []*ssd.FaultStore
	for i := range stores {
		dfc := fc
		dfc.Seed = uint64(i + 1)
		f := ssd.NewFaultStore(ssd.NewMemStore(), dfc)
		f.SetEnabled(false)
		faults = append(faults, f)
		stores[i] = f
	}
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{
		Devices: 4, StripeSize: 32 * 4096,
		Device: ssd.DeviceParams{RetryBase: time.Microsecond, RetryMax: 8},
	}, stores)
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: cacheBytes})
	shared, err := core.NewShared(img, core.Config{Threads: 2, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		f.SetEnabled(true)
	}
	return shared, faults
}

// TestHealthzReadyz: /healthz answers 200 always, reporting "degraded"
// once a device trips its breaker; /readyz flips to 503 on Drain.
func TestHealthzReadyz(t *testing.T) {
	shared, _ := faultShared(t, ssd.FaultConfig{EIORate: 1}, 64<<10)
	srv := New(shared, Config{MaxConcurrent: 2})
	defer srv.Close()
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	getJSON := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	// Trip a device: every store read fails, so direct array reads
	// exhaust retries until the health breaker opens.
	arr := shared.FS().Array()
	buf := make([]byte, 4096)
	for i := 0; i < 64 && arr.Stats().DegradedDevices == 0; i++ {
		_ = arr.ReadAt(buf, int64(i)*4096)
	}
	if arr.Stats().DegradedDevices == 0 {
		t.Fatal("no device degraded under a permanently failing store")
	}

	code, m := getJSON("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200 even degraded (liveness, not readiness)", code)
	}
	if m["status"] != "degraded" {
		t.Fatalf("/healthz status field = %v, want degraded", m["status"])
	}
	if m["degraded_devices"].(float64) == 0 {
		t.Fatal("/healthz did not report degraded device count")
	}

	if code, m = getJSON("/readyz"); code != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("/readyz = %d %v, want 200 ready", code, m)
	}
	srv.Drain()
	if code, _ = getJSON("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", code)
	}
	// Liveness stays up through the drain.
	if code, _ = getJSON("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", code)
	}
}

// TestHealthzSeesEveryGraphsArray: AddGraph accepts a Shared over any
// FS, so health is reported over all of them — a degraded array under
// a non-default graph must not hide behind a healthy default.
func TestHealthzSeesEveryGraphsArray(t *testing.T) {
	healthy := buildShared(t, 2)
	faulty, _ := faultShared(t, ssd.FaultConfig{EIORate: 1}, 64<<10)
	srv := New(healthy, Config{})
	defer srv.Close()
	if err := srv.AddGraph("faulty", faulty); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	arr := faulty.FS().Array()
	buf := make([]byte, 4096)
	for i := 0; i < 64 && arr.Stats().DegradedDevices == 0; i++ {
		_ = arr.ReadAt(buf, int64(i)*4096)
	}
	want := arr.Stats()
	if want.DegradedDevices == 0 {
		t.Fatal("no device degraded under a permanently failing store")
	}

	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		if path == "/stats" {
			m, _ = m["array"].(map[string]any)
		} else if m["status"] != "degraded" {
			t.Fatalf("/healthz status = %v with a degraded array under graph %q, want degraded", m["status"], "faulty")
		}
		if got, _ := m["degraded_devices"].(float64); int(got) != want.DegradedDevices {
			t.Fatalf("%s degraded_devices = %v, want %d", path, m["degraded_devices"], want.DegradedDevices)
		}
		if got, _ := m["io_errors"].(float64); int64(got) < want.Errors {
			t.Fatalf("%s io_errors = %v, want at least the faulty array's %d", path, m["io_errors"], want.Errors)
		}
	}
}

// TestDrainUnderFault is the shutdown-under-chaos regression: a server
// whose devices inject transient faults drains cleanly — every
// submitted query's Wait returns (absorbed faults succeed; nothing
// hangs), Close returns, and reads still answer afterwards. The page
// cache holds two of the image's six pages, so every query's reads
// keep reaching the faulty devices.
func TestDrainUnderFault(t *testing.T) {
	shared, faults := faultShared(t, ssd.FaultConfig{
		EIORate: 0.05, ShortReadRate: 0.02,
		LatencyRate: 0.05, LatencySpike: 50 * time.Microsecond,
		MaxFaults: 200,
	}, 8<<10)
	srv := New(shared, Config{MaxConcurrent: 2, ResultBytes: -1})

	var ids []int64
	for i := 0; i < 6; i++ {
		req := Request{Version: 1, Algo: []string{"bfs", "pagerank", "wcc"}[i%3]}
		if req.Algo == "bfs" {
			// Distinct sources so the single-flight cache cannot
			// coalesce the BFS runs away — real runs over faulty devices.
			req.Params = json.RawMessage(fmt.Sprintf(`{"src":%d}`, i))
		}
		id, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	srv.Drain()
	if _, err := srv.Submit(Request{Version: 1, Algo: "bfs"}); err == nil {
		t.Fatal("Submit accepted while draining")
	}
	for _, id := range ids {
		q, err := srv.Wait(id)
		if err != nil {
			t.Fatalf("Wait(%d): %v", id, err)
		}
		if q.State != StateDone {
			t.Fatalf("query %d (%s) under transient faults: state %s, error %q (transients must be absorbed)",
				id, q.Req.Algo, q.State, q.Error)
		}
	}
	srv.Close()

	injected := int64(0)
	for _, f := range faults {
		injected += f.Stats().Total()
	}
	if injected == 0 {
		t.Fatal("no faults injected; the drain proved nothing")
	}
	// Observation outlives computation.
	if got := srv.List(); len(got) != len(ids) {
		t.Fatalf("List() after Close = %d queries, want %d", len(got), len(ids))
	}
}
