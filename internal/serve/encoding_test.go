package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
)

// encodingFixture builds the registryFixture graphs ("dir" directed
// unweighted, "undir" undirected weighted) in the given on-SSD
// encoding, through the one canonical encoder.
func encodingFixture(t *testing.T, enc graph.Encoding) *Server {
	t.Helper()
	build := func(directed bool, attrSize int) *core.Shared {
		var attr graph.AttrFunc
		if attrSize > 0 {
			attr = func(src, dst graph.VertexID, buf []byte) { buf[0], buf[1], buf[2], buf[3] = 1, 0, 0, 0 }
		}
		a := graph.FromEdges(1<<6, gen.RMAT(6, 4, 9), directed)
		a.Dedup()
		iw := &graph.ImageWriter{
			NumV: a.N, Directed: directed, Encoding: enc,
			AttrSize: attrSize, Attr: attr, Out: graph.SliceSource(a.Out),
		}
		if directed {
			iw.In = graph.SliceSource(a.In)
		}
		img, err := iw.BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		sh, err := core.NewShared(img, core.Config{Threads: 1, InMemory: true, RangeShift: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	srv := New(build(true, 0), Config{DefaultGraph: "dir"})
	t.Cleanup(srv.Close)
	if err := srv.AddGraph("undir", build(false, 4)); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestEveryAlgorithmBitIdenticalAcrossEncodings serves the SAME graphs
// raw-encoded and delta-encoded and requires every registered
// algorithm to produce checksum-identical ResultSets on both — the
// proof that the second layout changes bytes on SSD, never answers.
// The table must cover every registered name; registering a new
// algorithm without extending it fails the test.
func TestEveryAlgorithmBitIdenticalAcrossEncodings(t *testing.T) {
	rawSrv := encodingFixture(t, graph.EncodingRaw)
	deltaSrv := encodingFixture(t, graph.EncodingDelta)

	params := map[string]struct {
		graph  string // "" = dir (directed unweighted)
		params string
	}{
		"bfs":       {"", `{"src":3}`},
		"pagerank":  {"", `{"iters":10}`},
		"wcc":       {"", ``},
		"labelprop": {"", `{"iters":5}`},
		"bc":        {"", `{"src":3}`},
		"tc":        {"", ``},
		"scanstat":  {"", ``},
		"kcore":     {"undir", `{"k":2}`},
		"sssp":      {"undir", `{"src":1}`},
		"ppagerank": {"undir", `{"src":1}`},
	}

	run := func(srv *Server, algo, gname, p string) string {
		t.Helper()
		id, err := srv.Submit(Request{Graph: gname, Algo: algo, Params: json.RawMessage(p)})
		if err != nil {
			t.Fatalf("%s submit: %v", algo, err)
		}
		q, err := srv.Wait(id)
		if err != nil || q.State != StateDone {
			t.Fatalf("%s: %v %v (%s)", algo, q.State, err, q.Error)
		}
		rs, err := srv.ResultSet(id)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Checksum()
	}

	for _, name := range rawSrv.reg.Names() {
		tc, ok := params[name]
		if !ok {
			t.Fatalf("registered algorithm %q has no raw-vs-delta coverage: add it to this table", name)
		}
		rawSum := run(rawSrv, name, tc.graph, tc.params)
		deltaSum := run(deltaSrv, name, tc.graph, tc.params)
		if rawSum != deltaSum {
			t.Errorf("%s: raw checksum %s != delta checksum %s", name, rawSum, deltaSum)
		}
	}

	// The catalog must report the layout per graph.
	for i, g := range deltaSrv.Graphs() {
		if g.Encoding != "delta" {
			t.Errorf("delta server graph %q reports encoding %q", g.Name, g.Encoding)
		}
		if raw := rawSrv.Graphs()[i]; raw.Encoding != "raw" {
			t.Errorf("raw server graph %q reports encoding %q", raw.Name, raw.Encoding)
		}
	}
}

// TestLayoutRoutesEngine: the graph's layout picks the engine — a
// default pagerank runs on the vertex engine over raw and on the SpMV
// engine over block, with one checksum — and Request.Engine only checks
// that pick. Naming the other engine, or asking a block graph for an
// algorithm without an SpMV form, fails at Submit with
// ErrIncompatibleGraph and over HTTP with 400.
func TestLayoutRoutesEngine(t *testing.T) {
	a := graph.FromEdges(1<<7, gen.RMAT(7, 5, 11), true)
	a.Dedup()
	build := func(enc graph.Encoding) *core.Shared {
		img, err := (&graph.ImageWriter{
			NumV: a.N, Directed: true, Encoding: enc,
			Out: graph.SliceSource(a.Out), In: graph.SliceSource(a.In),
		}).BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		sh, err := core.NewShared(img, core.Config{Threads: 2, InMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	srv := New(build(graph.EncodingRaw), Config{DefaultGraph: "raw"})
	t.Cleanup(srv.Close)
	if err := srv.AddGraph("blk", build(graph.EncodingBlock)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(srv))
	t.Cleanup(ts.Close)

	var prChecksum any
	for _, tc := range []struct {
		graph, algo, engine string
		want                string // the engine that runs it; "" = refused
	}{
		{"raw", "pagerank", "", "vertex"},
		{"raw", "pagerank", "vertex", "vertex"},
		{"raw", "bfs", "", "vertex"},
		{"blk", "pagerank", "", "spmv"},
		{"blk", "pagerank", "spmv", "spmv"},
		{"raw", "pagerank", "spmv", ""},
		{"raw", "bfs", "spmv", ""},
		{"blk", "bfs", "", ""},
		{"blk", "pagerank", "vertex", ""},
	} {
		req := Request{Version: RequestVersion, Graph: tc.graph, Algo: tc.algo, Engine: tc.engine}
		id, err := srv.Submit(req)
		if tc.want == "" {
			if !errors.Is(err, ErrIncompatibleGraph) {
				t.Errorf("%+v: Submit err %v, want ErrIncompatibleGraph", req, err)
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/queries", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%+v: POST /queries answered %d, want 400", req, resp.StatusCode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		q, err := srv.Wait(id)
		if err != nil || q.State != StateDone || q.Stats.Engine != tc.want {
			t.Fatalf("%+v: state %s on engine %q (%v %s), want done on %q", req, q.State, q.Stats.Engine, err, q.Error, tc.want)
		}
		if tc.algo != "pagerank" {
			continue
		}
		if prChecksum == nil {
			prChecksum = q.Result["checksum"]
		} else if q.Result["checksum"] != prChecksum {
			t.Errorf("%+v: checksum %v, want %v", req, q.Result["checksum"], prChecksum)
		}
	}
}
