// Custom: a user-defined vertex program — label-propagation community
// detection, registered as "communities" (the stock registry ships its
// own "labelprop") — written purely against the public flashgraph
// package, registered through the capability-typed AlgorithmSpec
// registry, and served over HTTP next to the built-ins. This is the
// paper's headline claim exercised end to end: FlashGraph is a
// *programming interface*, so the serving stack must run arbitrary
// vertex programs, not a fixed algorithm menu.
//
//	go run ./examples/custom
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"flashgraph"
)

// LabelProp is synchronous label propagation: every vertex starts in
// its own community (label = own ID) and repeatedly adopts the most
// frequent label among the labels its neighbors pushed last iteration
// (ties break to the smaller label, so the result is deterministic
// regardless of message delivery order). Vertices whose label did not
// change push nothing, so the computation — like the paper's
// algorithms — touches less I/O every iteration as communities settle.
type LabelProp struct {
	// Iters caps iterations (label propagation may oscillate forever
	// on bipartite structures; default 10).
	Iters int
	// Labels[v] is v's community after the run.
	Labels []uint32

	counts []map[uint32]int32 // labels heard this iteration, per vertex
}

// MaxIterations implements the engine's iteration cap.
func (lp *LabelProp) MaxIterations() int { return lp.Iters }

// Init implements flashgraph.Algorithm: everyone is their own
// community and everyone announces it.
func (lp *LabelProp) Init(eng flashgraph.RunContext) {
	n := eng.NumVertices()
	lp.Labels = make([]uint32, n)
	lp.counts = make([]map[uint32]int32, n)
	for v := range lp.Labels {
		lp.Labels[v] = uint32(v)
	}
	eng.ActivateAllSeeds()
}

// Run implements flashgraph.Algorithm: adopt the most frequent
// neighbor label; if it changed (or this is the first iteration),
// request our edge list to push the label onward.
func (lp *LabelProp) Run(ctx *flashgraph.Ctx, v flashgraph.VertexID) {
	changed := ctx.Iteration() == 0
	if heard := lp.counts[v]; len(heard) > 0 {
		// The current label gets one sticky self-vote: it damps the
		// two-label oscillation synchronous label propagation is prone
		// to, without affecting determinism.
		best, bestN := lp.Labels[v], int32(1)
		for lbl, n := range heard {
			if n > bestN || (n == bestN && lbl < best) {
				best, bestN = lbl, n
			}
		}
		lp.counts[v] = nil
		if best != lp.Labels[v] {
			lp.Labels[v] = best
			changed = true
		}
	}
	if changed && ctx.OutDegree(v) > 0 {
		ctx.RequestSelf(flashgraph.OutEdges)
	}
}

// RunOnVertex implements flashgraph.Algorithm: multicast our label to
// every neighbor (the same value goes to all of them — the multicast
// case the paper optimizes).
func (lp *LabelProp) RunOnVertex(ctx *flashgraph.Ctx, v flashgraph.VertexID, pv *flashgraph.PageVertex) {
	if pv.NumEdges() == 0 {
		return
	}
	ctx.Multicast(ctx.Neighbors(pv), flashgraph.Message{I64: int64(lp.Labels[v])})
}

// RunOnMessage implements flashgraph.Algorithm: count the label and
// wake up to re-decide next iteration. Messages for a vertex arrive on
// its owner thread, so the per-vertex count map needs no locking.
func (lp *LabelProp) RunOnMessage(ctx *flashgraph.Ctx, v flashgraph.VertexID, msg flashgraph.Message) {
	if lp.counts[v] == nil {
		lp.counts[v] = make(map[uint32]int32, 4)
	}
	lp.counts[v][uint32(msg.I64)]++
	ctx.Activate(v)
}

// Result implements the typed result contract: the community vector
// plus a community count, checksummed like every built-in result.
func (lp *LabelProp) Result() *flashgraph.ResultSet {
	rs := flashgraph.NewResultSet("communities")
	distinct := map[uint32]bool{}
	for _, l := range lp.Labels {
		distinct[l] = true
	}
	rs.AddScalar("communities", len(distinct))
	rs.AddUint32("community", lp.Labels)
	return rs
}

// labelPropParams is the algorithm's typed parameter struct; the
// registry serves its schema at GET /algos and DecodeParams rejects
// requests that do not match it, naming the offending field.
type labelPropParams struct {
	Iters int `json:"iters" doc:"iteration cap for label propagation" default:"10"`
}

// spec is everything the serving stack needs to run LabelProp:
// registration is the whole integration.
var spec = flashgraph.AlgorithmSpec{
	Name:   "communities",
	Doc:    "label-propagation community detection; community vector + communities scalar",
	Params: labelPropParams{},
	New: func(raw json.RawMessage, g flashgraph.GraphMeta) (flashgraph.Program, error) {
		var p labelPropParams
		if err := flashgraph.DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		if p.Iters < 0 {
			return nil, fmt.Errorf("iters must be >= 0, got %d", p.Iters)
		}
		if p.Iters == 0 {
			p.Iters = 10
		}
		return &LabelProp{Iters: p.Iters}, nil
	},
}

func main() {
	// Publish the algorithm process-wide: every server constructed from
	// here on — including an fg-serve daemon embedding this package —
	// can run it.
	if err := flashgraph.Register(spec); err != nil {
		log.Fatal(err)
	}

	// A planted-partition graph: dense rings-with-chords communities
	// joined by single weak bridges — ground truth for label
	// propagation to recover.
	const domains, domainSize = 16, 48
	var edges []flashgraph.Edge
	base := func(d int) flashgraph.VertexID { return flashgraph.VertexID(d % domains * domainSize) }
	for d := 0; d < domains; d++ {
		for i := 0; i < domainSize; i++ {
			for _, s := range []int{1, 2, 5} { // ring + chords: diameter ~domainSize/5
				edges = append(edges, flashgraph.Edge{
					Src: base(d) + flashgraph.VertexID(i),
					Dst: base(d) + flashgraph.VertexID((i+s)%domainSize),
				})
			}
		}
		edges = append(edges, flashgraph.Edge{Src: base(d), Dst: base(d + 1)}) // weak bridge
	}
	g := flashgraph.NewGraph(domains*domainSize, edges, flashgraph.Undirected)
	cat := flashgraph.NewCatalog(flashgraph.Options{Threads: 4, CacheBytes: 2 << 20})
	defer cat.Close()
	if _, err := cat.Add("web", g); err != nil {
		log.Fatal(err)
	}
	srv, err := flashgraph.NewServer(cat, flashgraph.ServerConfig{MaxConcurrent: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Serve the full fg-serve HTTP surface and talk to it as a client
	// would (httptest picks a free port; http.ListenAndServe works the
	// same way for a real daemon).
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The registry lists the custom algorithm next to the built-ins,
	// with its doc, capability requirements, and param schema.
	var algos []flashgraph.AlgoInfo
	mustGetJSON(ts.URL+"/algos", &algos)
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
		if a.Name == "communities" {
			fmt.Printf("GET /algos -> %s: %q params %v\n", a.Name, a.Doc, a.Params)
		}
	}
	fmt.Printf("registry: %s\n\n", strings.Join(names, " "))

	// Run it over HTTP with its own typed params.
	resp, err := http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"version":1,"graph":"web","algo":"communities","params":{"iters":20}}`))
	if err != nil {
		log.Fatal(err)
	}
	var q struct {
		ID int64 `json:"id"`
	}
	decodeBody(resp, &q)
	var done map[string]any
	mustGetJSON(fmt.Sprintf("%s/queries/%d?wait=1", ts.URL, q.ID), &done)
	result := done["result"].(map[string]any)
	fmt.Printf("communities on %d vertices / %d edges: %v communities across %d planted domains (checksum %v)\n",
		g.NumVertices(), g.NumEdges(), result["communities"], domains, result["checksum"])

	// The typed result endpoints work on it like on any built-in. The
	// histogram (one bin per planted domain) shows every community
	// stays inside its domain: each bin holds exactly domainSize
	// vertices, so no label leaked across a bridge.
	var hist struct {
		Counts []int64 `json:"counts"`
	}
	mustGetJSON(fmt.Sprintf("%s/queries/%d/result/histogram?bins=%d&vector=community", ts.URL, q.ID, domains), &hist)
	fmt.Printf("labels per domain-aligned bin (want %d each): %v\n\n", domainSize, hist.Counts)

	// Strict typed params: a wrong field fails with the accepted list.
	resp, err = http.Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"algo":"communities","params":{"rounds":5}}`))
	if err != nil {
		log.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	decodeBody(resp, &e)
	fmt.Printf("bad params -> %d: %s\n", resp.StatusCode, e.Error)
}

func mustGetJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decodeBody(resp, into)
}

func decodeBody(resp *http.Response, into any) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(body, into); err != nil {
		log.Fatalf("bad response %s: %v", body, err)
	}
}
