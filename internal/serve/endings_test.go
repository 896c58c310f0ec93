package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/qos"
	"flashgraph/internal/safs"
)

// corruptAlg fails the way a checksum mismatch does: a typed error
// raised on a worker goroutine, which the engine turns into the run's
// error with the wrap chain intact.
type corruptAlg struct{}

func (corruptAlg) Init(eng core.ExecutionEngine)                            { eng.ActivateSeed(0) }
func (corruptAlg) RunOnMessage(*core.Ctx, graph.VertexID, core.Message)     {}
func (corruptAlg) RunOnVertex(*core.Ctx, graph.VertexID, *graph.PageVertex) {}
func (corruptAlg) Run(*core.Ctx, graph.VertexID) {
	panic(fmt.Errorf("page 3 of extent 0: %w", safs.ErrCorrupted))
}

// ending is what one query must look like once it is over.
type ending struct {
	id        int64
	state     State
	cache     string
	timeout   bool
	canceled  bool
	corrupted bool
	class     qos.Class
	status    int // of GET /queries/{id}
}

// TestEveryEnding walks every way a query can end — executed, hit,
// coalesced, canceled while queued, canceled while running, canceled as
// a lone follower, stopped by its deadline (with a follower that asked
// for the same deadline, and next to a request that asked for none),
// failed on corrupt data, each with a coalesced follower where one can
// attach — and checks the one record of it: state, cache provenance,
// the three failure flags, the per-class counters and the HTTP status.
// A follower must tell the same story as the leader it shared a fate
// with.
func TestEveryEnding(t *testing.T) {
	shared := buildShared(t, 2)
	srv := New(shared, Config{MaxConcurrent: 1})
	defer srv.Close()
	// A failed case must not leave a crawl holding the slot: the next
	// case, and Close, would wait on it.
	cancelAll := func() {
		for _, q := range srv.List() {
			_ = srv.Cancel(q.ID) // cannot fail: the ID was just listed
		}
	}
	started := registerCrawl(t, srv, time.Millisecond, 1_000_000)
	if err := srv.Register(AlgorithmSpec{Name: "corrupt", New: func(json.RawMessage, GraphMeta) (core.Program, error) {
		return corruptAlg{}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	submit := func(t *testing.T, req Request) int64 {
		t.Helper()
		id, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// crawl(n) is a distinct never-ending computation per n (the fixture
	// ignores its params, the cache key does not).
	crawl := func(n int) Request {
		return Request{Algo: "crawl", Params: json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))}
	}
	// occupy fills the only slot with a running crawl: it returns once
	// crawl(n) has sent n from its first Run, passing over the signals
	// of crawls other cases ran.
	occupy := func(t *testing.T, n int) int64 {
		t.Helper()
		id := submit(t, crawl(n))
		for <-started != n {
		}
		return id
	}
	cancel := func(t *testing.T, id int64) {
		t.Helper()
		if err := srv.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	const analytic, interactive = qos.ClassAnalytic, qos.ClassInteractive
	done := func(id int64, cache string, class qos.Class) ending {
		return ending{id: id, state: StateDone, cache: cache, class: class, status: http.StatusOK}
	}
	canceled := func(id int64, cache string) ending {
		return ending{id: id, state: StateFailed, cache: cache, canceled: true, class: analytic, status: http.StatusOK}
	}
	timedOut := func(id int64, cache string) ending {
		return ending{id: id, state: StateFailed, cache: cache, timeout: true, class: analytic, status: http.StatusGatewayTimeout}
	}
	bfs := Request{Algo: "bfs", Params: MarshalParams(SrcParams{Src: 1})}

	cases := []struct {
		name string
		run  func(t *testing.T) []ending
	}{
		{"executed then hit", func(t *testing.T) []ending {
			first := submit(t, bfs)
			if _, err := srv.Wait(first); err != nil {
				t.Fatal(err)
			}
			return []ending{done(first, "", interactive), done(submit(t, bfs), CacheHit, interactive)}
		}},
		{"coalesced behind a queued leader", func(t *testing.T) []ending {
			blocker := occupy(t, 1)
			leader, follower := submit(t, Request{Algo: "wcc"}), submit(t, Request{Algo: "wcc"})
			if q, _ := srv.Get(follower); q.State != StateQueued || q.Cache != CacheCoalesced {
				t.Fatalf("waiting follower = state %s cache %q, want queued and coalesced", q.State, q.Cache)
			}
			cancel(t, blocker)
			return []ending{canceled(blocker, ""), done(leader, "", analytic), done(follower, CacheCoalesced, analytic)}
		}},
		{"canceled while queued", func(t *testing.T) []ending {
			blocker := occupy(t, 2)
			leader, follower := submit(t, Request{Algo: "tc"}), submit(t, Request{Algo: "tc"})
			cancel(t, leader)
			if q, err := srv.Wait(follower); err != nil || q.State != StateFailed {
				t.Fatalf("follower of a canceled queued leader = %+v, %v; want failed now, not behind the blocker", q, err)
			}
			cancel(t, blocker)
			return []ending{canceled(leader, ""), canceled(follower, CacheCoalesced), canceled(blocker, "")}
		}},
		{"canceled while running", func(t *testing.T) []ending {
			leader := occupy(t, 3)
			follower := submit(t, crawl(3))
			cancel(t, leader)
			return []ending{canceled(leader, ""), canceled(follower, CacheCoalesced)}
		}},
		{"canceled lone follower", func(t *testing.T) []ending {
			leader := occupy(t, 4)
			follower := submit(t, crawl(4))
			cancel(t, follower)
			if _, err := srv.Wait(follower); err != nil {
				t.Fatal(err)
			}
			if q, _ := srv.Get(leader); q.State != StateRunning {
				t.Fatalf("leader is %s after its follower was canceled, want still running", q.State)
			}
			cancel(t, leader)
			return []ending{canceled(follower, CacheCoalesced), canceled(leader, "")}
		}},
		{"deadline", func(t *testing.T) []ending {
			req := crawl(5)
			req.TimeoutMs = 30
			leader, follower := submit(t, req), submit(t, req)
			return []ending{timedOut(leader, ""), timedOut(follower, CacheCoalesced)}
		}},
		{"no deadline behind a leader with one", func(t *testing.T) []ending {
			req := crawl(7)
			req.TimeoutMs = 30
			leader, patient := submit(t, req), submit(t, crawl(7))
			if q, _ := srv.Get(patient); q.Cache != "" {
				t.Fatalf("request without a deadline is %q onto a leader with timeout_ms=30, want its own run", q.Cache)
			}
			if q, err := srv.Wait(leader); err != nil || !q.Timeout {
				t.Fatalf("leader = %+v, %v; want stopped by its deadline", q, err)
			}
			// The same computation, never ending and never timed: only a
			// cancel stops it.
			if q, _ := srv.Get(patient); q.State == StateFailed {
				t.Fatalf("request without a deadline failed with its leader: %q", q.Error)
			}
			cancel(t, patient)
			return []ending{timedOut(leader, ""), canceled(patient, "")}
		}},
		{"corrupt data", func(t *testing.T) []ending {
			blocker := occupy(t, 6)
			leader, follower := submit(t, Request{Algo: "corrupt"}), submit(t, Request{Algo: "corrupt"})
			cancel(t, blocker)
			corrupted := func(id int64, cache string) ending {
				return ending{id: id, state: StateFailed, cache: cache, corrupted: true, class: analytic, status: http.StatusInternalServerError}
			}
			return []ending{canceled(blocker, ""), corrupted(leader, ""), corrupted(follower, CacheCoalesced)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer cancelAll()
			before := srv.Stats()
			ends := tc.run(t)
			var wantDone, wantFail [qos.NumClasses]int64
			leaderErr := ""
			for i, e := range ends {
				q, err := srv.Wait(e.id)
				if err != nil {
					t.Fatal(err)
				}
				got := ending{id: q.ID, state: q.State, cache: q.Cache, timeout: q.Timeout,
					canceled: q.Canceled, corrupted: q.Corrupted, class: q.Class}
				resp, err := http.Get(fmt.Sprintf("%s/queries/%d", ts.URL, e.id))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if got.status = resp.StatusCode; got != e {
					t.Errorf("query %d ended as %+v, want %+v (error %q)", e.id, got, e, q.Error)
				}
				if q.Finished.IsZero() || q.Started.IsZero() {
					t.Errorf("query %d: started %v finished %v, want both set once it is over", e.id, q.Started, q.Finished)
				}
				// A follower listed right after its leader shared its fate.
				if i > 0 && e.cache == CacheCoalesced && q.Error != leaderErr {
					t.Errorf("follower %d reports %q, its leader %q", e.id, q.Error, leaderErr)
				}
				leaderErr = q.Error
				if e.state == StateDone {
					wantDone[e.class.Rank()]++
				} else {
					wantFail[e.class.Rank()]++
				}
			}
			after := srv.Stats()
			for i, cl := range qos.Classes {
				gotDone := after.Classes[i].Completed - before.Classes[i].Completed
				gotFail := after.Classes[i].Failed - before.Classes[i].Failed
				if gotDone != wantDone[i] || gotFail != wantFail[i] {
					t.Errorf("class %s: +%d completed +%d failed, want +%d +%d", cl, gotDone, gotFail, wantDone[i], wantFail[i])
				}
			}
			if after.Running != 0 || after.Queued != 0 {
				t.Errorf("case left %d running, %d queued", after.Running, after.Queued)
			}
		})
	}
}
