package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/qos"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// httpFixture is two named graphs on ONE SAFS instance behind the full
// fg-serve HTTP surface.
type httpFixture struct {
	ts     *httptest.Server
	srv    *Server
	fs     *safs.FS
	shared map[string]*core.Shared
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})

	build := func(scale, epv int, seed uint64, name string) *core.Shared {
		a := graph.FromEdges(1<<scale, gen.RMAT(scale, epv, seed), true)
		a.Dedup()
		img := graph.BuildImage(a, 0, nil)
		sh, err := core.NewShared(img, core.Config{Threads: 1, FS: fs, RangeShift: 3, GraphName: name})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	shared := map[string]*core.Shared{
		"social": build(7, 5, 11, "social"),
		"web":    build(8, 4, 22, "web"),
	}
	srv := New(shared["social"], Config{MaxConcurrent: 2, DefaultGraph: "social"})
	t.Cleanup(srv.Close)
	if err := srv.AddGraph("web", shared["web"]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(srv))
	t.Cleanup(ts.Close)
	return &httpFixture{ts: ts, srv: srv, fs: fs, shared: shared}
}

func (f *httpFixture) do(t *testing.T, method, path, body string) (int, map[string]any) {
	t.Helper()
	status, raw := f.doRaw(t, method, path, body)
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, path, raw, err)
	}
	return status, out
}

func (f *httpFixture) doRaw(t *testing.T, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, f.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// submitWait submits a request and blocks until it is done, returning
// the query id.
func (f *httpFixture) submitWait(t *testing.T, body string) int64 {
	t.Helper()
	status, q := f.do(t, "POST", "/queries", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %v", body, status, q)
	}
	id := int64(q["id"].(float64))
	status, q = f.do(t, "GET", fmt.Sprintf("/queries/%d?wait=1", id), "")
	if status != http.StatusOK || q["state"] != "done" {
		t.Fatalf("wait %d: status %d state %v error %v", id, status, q["state"], q["error"])
	}
	return id
}

// TestHTTPEndToEndMultiGraph is the acceptance test: queries against
// two named graphs sharing one page cache through the fg-serve HTTP
// surface, with point lookups and paginated top-K bit-identical to a
// direct Engine.Run on the same images.
func TestHTTPEndToEndMultiGraph(t *testing.T) {
	f := newHTTPFixture(t)

	// Direct reference runs (same substrate => same images; Threads=1
	// keeps each run's accumulation order deterministic).
	refs := map[string]*result.ResultSet{}
	for name, sh := range f.shared {
		pr := algo.NewPageRank()
		if _, err := sh.NewRun().Run(pr); err != nil {
			t.Fatal(err)
		}
		refs[name] = pr.Result()
	}

	for _, gname := range []string{"social", "web"} {
		id := f.submitWait(t, fmt.Sprintf(`{"version":1,"graph":%q,"algo":"pagerank"}`, gname))
		ref := refs[gname]

		// Summary checksum certifies bit-identical full vectors.
		status, sum := f.do(t, "GET", fmt.Sprintf("/queries/%d/result", id), "")
		if status != http.StatusOK {
			t.Fatalf("result summary: %d %v", status, sum)
		}
		if sum["checksum"] != ref.Checksum() {
			t.Fatalf("graph %s: HTTP checksum %v != direct-run checksum %v", gname, sum["checksum"], ref.Checksum())
		}

		// Point lookups, bit-compared against the direct run.
		for _, v := range []int{0, 1, 17} {
			status, e := f.do(t, "GET", fmt.Sprintf("/queries/%d/result/lookup?vertex=%d&vector=score", id, v), "")
			if status != http.StatusOK {
				t.Fatalf("lookup: %d %v", status, e)
			}
			want, _ := ref.Lookup("score", v)
			if math.Float64bits(e["value"].(float64)) != math.Float64bits(want.Value.(float64)) {
				t.Fatalf("graph %s lookup[%d] = %v, want %v", gname, v, e["value"], want.Value)
			}
		}

		// Paginated top-K: two pages of 3 must equal the direct run's
		// first 6 ranks, in order.
		var got []map[string]any
		for _, off := range []int{0, 3} {
			status, page := f.do(t, "GET", fmt.Sprintf("/queries/%d/result/topk?k=3&offset=%d", id, off), "")
			if status != http.StatusOK {
				t.Fatalf("topk: %d %v", status, page)
			}
			for _, e := range page["entries"].([]any) {
				got = append(got, e.(map[string]any))
			}
		}
		want, err := ref.TopK("score", 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("graph %s: %d paged entries, want %d", gname, len(got), len(want))
		}
		for i := range want {
			if uint32(got[i]["vertex"].(float64)) != want[i].Vertex ||
				math.Float64bits(got[i]["value"].(float64)) != math.Float64bits(want[i].Value.(float64)) {
				t.Fatalf("graph %s topk[%d] = %v, want %+v", gname, i, got[i], want[i])
			}
		}

		// Histogram endpoint answers over the same vector.
		if status, h := f.do(t, "GET", fmt.Sprintf("/queries/%d/result/histogram?bins=4", id), ""); status != http.StatusOK || len(h["counts"].([]any)) != 4 {
			t.Fatalf("histogram: %d %v", status, h)
		}
	}

	// Both graphs' queries ran through one shared page cache.
	cs := f.fs.Cache().Stats()
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("no page-cache traffic recorded on the shared substrate")
	}
	status, stats := f.do(t, "GET", "/stats", "")
	if status != http.StatusOK {
		t.Fatalf("/stats: %d", status)
	}
	if n := len(stats["graphs"].([]any)); n != 2 {
		t.Fatalf("/stats graphs = %d, want 2", n)
	}
	if stats["cache"] == nil {
		t.Fatal("/stats missing shared-cache section")
	}
	if classes, _ := stats["scheduler"].(map[string]any)["classes"].([]any); len(classes) != qos.NumClasses {
		t.Fatalf("/stats scheduler.classes = %v, want %d classes", classes, qos.NumClasses)
	}
}

func TestHTTPSubmitPollListStats(t *testing.T) {
	f := newHTTPFixture(t)

	// Submit returns 202 with the queued/running/done snapshot.
	status, q := f.do(t, "POST", "/queries", `{"algo":"bfs","params":{"src":0}}`)
	if status != http.StatusAccepted || q["id"] == nil {
		t.Fatalf("submit: %d %v", status, q)
	}
	id := int64(q["id"].(float64))

	// Wait, then plain poll.
	if status, q = f.do(t, "GET", fmt.Sprintf("/queries/%d?wait=1", id), ""); status != http.StatusOK || q["state"] != "done" {
		t.Fatalf("wait: %d %v", status, q)
	}
	if status, q = f.do(t, "GET", fmt.Sprintf("/queries/%d", id), ""); status != http.StatusOK || q["state"] != "done" {
		t.Fatalf("poll: %d %v", status, q)
	}
	if q["result"].(map[string]any)["reached"] == nil {
		t.Fatalf("bfs summary missing reached: %v", q["result"])
	}

	// List contains the query.
	status, raw := f.doRaw(t, "GET", "/queries", "")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	var list []map[string]any
	if err := json.Unmarshal(raw, &list); err != nil || len(list) != 1 {
		t.Fatalf("list = %s (%v)", raw, err)
	}

	// Graph catalog.
	status, raw = f.doRaw(t, "GET", "/graphs", "")
	if status != http.StatusOK {
		t.Fatal(status)
	}
	var graphs []map[string]any
	if err := json.Unmarshal(raw, &graphs); err != nil || len(graphs) != 2 {
		t.Fatalf("graphs = %s (%v)", raw, err)
	}
	if graphs[0]["name"] != "social" || graphs[0]["default"] != true {
		t.Fatalf("default graph = %v", graphs[0])
	}

	// Health.
	if status, h := f.do(t, "GET", "/healthz", ""); status != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, h)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	f := newHTTPFixture(t)
	id := f.submitWait(t, `{"algo":"bfs"}`)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"unknown graph", "POST", "/queries", `{"graph":"nope","algo":"bfs"}`, http.StatusNotFound},
		{"unknown algorithm", "POST", "/queries", `{"algo":"nope"}`, http.StatusBadRequest},
		{"bad JSON", "POST", "/queries", `{"algo"`, http.StatusBadRequest},
		{"trailing data", "POST", "/queries", `{"algo":"bfs"} garbage`, http.StatusBadRequest},
		{"second object", "POST", "/queries", `{"algo":"bfs"}{"algo":"bfs"}`, http.StatusBadRequest},
		{"oversized body", "POST", "/queries", `{"algo":"bfs","params":{"pad":"` + strings.Repeat("x", 64<<10) + `"}}`, http.StatusRequestEntityTooLarge},
		{"unknown field", "POST", "/queries", `{"algo":"bfs","bogus":1}`, http.StatusBadRequest},
		{"legacy flat src field", "POST", "/queries", `{"algo":"bfs","src":3}`, http.StatusBadRequest},
		{"retired tenant field", "POST", "/queries", `{"algo":"bfs","tenant":"alice"}`, http.StatusBadRequest},
		{"future version", "POST", "/queries", `{"version":9,"algo":"bfs"}`, http.StatusBadRequest},
		{"out-of-range source", "POST", "/queries", `{"algo":"bfs","params":{"src":99999}}`, http.StatusBadRequest},
		{"sssp on unweighted", "POST", "/queries", `{"algo":"sssp"}`, http.StatusBadRequest},
		{"ppagerank on unweighted", "POST", "/queries", `{"algo":"ppagerank"}`, http.StatusBadRequest},
		{"kcore on directed", "POST", "/queries", `{"algo":"kcore"}`, http.StatusBadRequest},
		{"unknown per-algo param", "POST", "/queries", `{"algo":"bfs","params":{"srcc":1}}`, http.StatusBadRequest},
		{"mistyped per-algo param", "POST", "/queries", `{"algo":"pagerank","params":{"iters":"ten"}}`, http.StatusBadRequest},
		{"params on no-param algo", "POST", "/queries", `{"algo":"wcc","params":{"src":0}}`, http.StatusBadRequest},
		{"negative iters", "POST", "/queries", `{"algo":"pagerank","params":{"iters":-3}}`, http.StatusBadRequest},
		{"unknown query id", "GET", "/queries/999", "", http.StatusNotFound},
		{"unknown query wait", "GET", "/queries/999?wait=1", "", http.StatusNotFound},
		{"bad query id", "GET", "/queries/abc", "", http.StatusBadRequest},
		{"unknown query result", "GET", "/queries/999/result", "", http.StatusNotFound},
		{"lookup missing vertex", "GET", fmt.Sprintf("/queries/%d/result/lookup", id), "", http.StatusBadRequest},
		{"lookup out-of-range vertex", "GET", fmt.Sprintf("/queries/%d/result/lookup?vertex=99999", id), "", http.StatusBadRequest},
		{"lookup negative vertex", "GET", fmt.Sprintf("/queries/%d/result/lookup?vertex=-1", id), "", http.StatusBadRequest},
		{"lookup unknown vector", "GET", fmt.Sprintf("/queries/%d/result/lookup?vertex=0&vector=nope", id), "", http.StatusBadRequest},
		{"topk missing k", "GET", fmt.Sprintf("/queries/%d/result/topk", id), "", http.StatusBadRequest},
		{"topk zero k", "GET", fmt.Sprintf("/queries/%d/result/topk?k=0", id), "", http.StatusBadRequest},
		{"topk negative offset", "GET", fmt.Sprintf("/queries/%d/result/topk?k=1&offset=-2", id), "", http.StatusBadRequest},
		{"histogram zero bins", "GET", fmt.Sprintf("/queries/%d/result/histogram?bins=0", id), "", http.StatusBadRequest},
		{"histogram huge bins", "GET", fmt.Sprintf("/queries/%d/result/histogram?bins=1000000000", id), "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := f.do(t, tc.method, tc.path, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.wantStatus, body)
		}
		if body["error"] == nil {
			t.Errorf("%s: no error message in %v", tc.name, body)
		}
	}

	// Extreme-but-valid top-K parameters clamp to the vector instead of
	// overflowing (regression: k+offset must never panic makeslice).
	status, page := f.do(t, "GET",
		fmt.Sprintf("/queries/%d/result/topk?k=9223372036854775807&offset=9223372036854775807", id), "")
	if status != http.StatusOK || len(page["entries"].([]any)) != 0 {
		t.Fatalf("huge topk params: %d %v", status, page)
	}

	// None of the rejected bodies admitted anything, whitespace after the
	// request object is not trailing data, and a closed server answers 503
	// like a draining one.
	if st := f.srv.Stats(); st.Submitted != 1 {
		t.Fatalf("rejected requests admitted queries: %+v", st)
	}
	if status, q := f.do(t, "POST", "/queries", `{"algo":"bfs","params":{"src":1}}`+"\n "); status != http.StatusAccepted {
		t.Fatalf("trailing whitespace: %d %v", status, q)
	}
	f.srv.Close()
	if status, body := f.do(t, "POST", "/queries", `{"algo":"bfs"}`); status != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: %d %v, want 503", status, body)
	}
}

// TestHTTPAlgosAndStrictParams covers the registry surface over HTTP:
// GET /algos lists every registered algorithm with doc, caps, and
// param schema (including a server-local custom registration), and
// bad per-algorithm params come back as 400s naming the offending
// field and the accepted params.
func TestHTTPAlgosAndStrictParams(t *testing.T) {
	f := newHTTPFixture(t)
	if err := f.srv.Register(AlgorithmSpec{
		Name: "touch",
		Doc:  "test: touches every vertex",
		Params: struct {
			Rounds int `json:"rounds"`
		}{},
		New: func(raw json.RawMessage, g GraphMeta) (core.Program, error) {
			var p struct {
				Rounds int `json:"rounds"`
			}
			if err := DecodeParams(raw, &p); err != nil {
				return nil, err
			}
			return &touchAlg{rounds: max(p.Rounds, 1)}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	status, raw := f.doRaw(t, "GET", "/algos", "")
	if status != http.StatusOK {
		t.Fatalf("/algos: %d", status)
	}
	var infos []AlgoInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatalf("/algos payload %s: %v", raw, err)
	}
	byName := map[string]AlgoInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	for _, name := range []string{"bfs", "pagerank", "ppagerank", "wcc", "bc", "tc", "kcore", "sssp", "scanstat", "touch"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("/algos missing %q (got %v)", name, raw)
		}
	}
	if !byName["kcore"].Caps.RequiresUndirected || !byName["sssp"].Caps.RequiresWeighted || !byName["bfs"].Caps.NeedsSrc {
		t.Fatalf("/algos caps wrong: %s", raw)
	}
	if p := byName["ppagerank"].Params; len(p) != 3 || p[0].Name != "src" ||
		p[2].Name != "damping" || p[2].Type != "number" || p[2].Doc == "" || p[2].Default != 0.85 {
		t.Fatalf("ppagerank schema = %+v", p)
	}
	if p := byName["touch"].Params; len(p) != 1 || p[0] != (ParamInfo{Name: "rounds", Type: "integer"}) {
		t.Fatalf("touch schema = %+v", p)
	}
	if len(byName["wcc"].Params) != 0 {
		t.Fatalf("wcc schema = %+v", byName["wcc"].Params)
	}

	// The custom algorithm runs over HTTP with its typed params...
	id := f.submitWait(t, `{"algo":"touch","params":{"rounds":2}}`)
	if status, sum := f.do(t, "GET", fmt.Sprintf("/queries/%d/result", id), ""); status != http.StatusOK || sum["checksum"] == nil {
		t.Fatalf("touch result: %d %v", status, sum)
	}
	// ...and rejects bad params with the accepted-params message.
	status, body := f.do(t, "POST", "/queries", `{"algo":"touch","params":{"round":2}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad touch param: %d %v", status, body)
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, `unknown param "round"`) || !strings.Contains(msg, "rounds (integer)") {
		t.Fatalf("bad-param message %q must name the field and accepted params", msg)
	}
	status, body = f.do(t, "POST", "/queries", `{"algo":"nope"}`)
	if status != http.StatusBadRequest || !strings.Contains(body["error"].(string), "registered: bc, bfs") {
		t.Fatalf("unknown algo must list registered names: %d %v", status, body)
	}
}

// TestHTTPQueueFull drives admission control through the HTTP layer:
// the response must be 503, not a hung request.
func TestHTTPQueueFull(t *testing.T) {
	srv, entered, release := gatedServer(t, Config{MaxConcurrent: 1, MaxQueued: 1})
	defer srv.Close()
	defer close(release)
	ts := httptest.NewServer(Handler(srv))
	defer ts.Close()

	n := 0
	post := func() (int, map[string]any) {
		n++ // distinct params: identical gates would coalesce, not queue
		resp, err := http.Post(ts.URL+"/queries", "application/json",
			strings.NewReader(fmt.Sprintf(`{"algo":"gate","params":{"n":%d}}`, n)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	if status, q := post(); status != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", status, q)
	}
	<-entered // running, slot held
	if status, q := post(); status != http.StatusAccepted {
		t.Fatalf("queued submit: %d %v", status, q)
	}
	status, q := post()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: %d %v, want 503", status, q)
	}
}

// TestHTTPScanStatPrunesLikeDirectRun: the schedule and running window
// scan statistics needs travel with the program, so a query submitted
// over HTTP — which builds its run from the graph's Shared config and
// nothing else — does the work a direct run does: the same maximum at
// the same vertex, reading the same edge lists, with about one window of
// neighbourhoods computed and the long tail pruned. (One thread: how
// many vertices pruning skips races across threads.)
func TestHTTPScanStatPrunesLikeDirectRun(t *testing.T) {
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2})
	t.Cleanup(arr.Close)
	const scale = 12
	a := graph.FromEdges(1<<scale, gen.RMAT(scale, 8, 5), true)
	a.Dedup()
	shared, err := core.NewShared(graph.BuildImage(a, 0, nil),
		core.Config{Threads: 1, FS: safs.New(arr, safs.Config{CacheBytes: 1 << 20}), RangeShift: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(shared, Config{MaxConcurrent: 1})
	t.Cleanup(srv.Close)
	f := &httpFixture{ts: httptest.NewServer(Handler(srv)), srv: srv}
	t.Cleanup(f.ts.Close)

	direct := algo.NewScanStat()
	st, err := shared.NewRun().Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Computed > 1<<scale/4 {
		t.Fatalf("direct scanstat computed %d of %d neighbourhoods: the program's order and window were not used", direct.Computed, 1<<scale)
	}
	id := f.submitWait(t, `{"algo":"scanstat"}`)
	_, sum := f.do(t, "GET", fmt.Sprintf("/queries/%d/result", id), "")
	max, argmax := sum["max"].(float64), sum["argmax"].(float64)
	if int64(max) != direct.Max || graph.VertexID(argmax) != direct.ArgMax {
		t.Fatalf("served max %v at %v, direct run %d at %d", max, argmax, direct.Max, direct.ArgMax)
	}
	if q, _ := srv.Get(id); q.Stats.EdgeRequests != st.EdgeRequests {
		t.Fatalf("served scanstat read %d edge lists, direct run %d: not the same schedule", q.Stats.EdgeRequests, st.EdgeRequests)
	}
}
