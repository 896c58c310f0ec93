package serve

import (
	"encoding/json"
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
