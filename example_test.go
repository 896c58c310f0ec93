package flashgraph_test

import (
	"encoding/json"
	"fmt"

	"flashgraph"
)

// Every built-in algorithm returns its output through the uniform
// typed result contract: named per-vertex vectors plus named scalars,
// with point lookup, paginated top-K, and a deterministic checksum.
func Example_typedResults() {
	g := flashgraph.NewGraph(4, []flashgraph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	}, flashgraph.Directed)
	eng, err := flashgraph.Open(g, flashgraph.Options{})
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	bfs := flashgraph.NewBFS(0)
	if _, err := eng.Run(bfs); err != nil {
		panic(err)
	}
	rs := bfs.Result()

	reached, _ := rs.Scalar("reached")
	fmt.Println("reached:", reached)

	// Point lookup: what is vertex 3's BFS level?
	e, _ := rs.Lookup("level", 3)
	fmt.Printf("level[%d] = %v\n", e.Vertex, e.Value)

	// Top-K with pagination: deepest vertices first, deterministic
	// tie-breaks (smaller vertex ID wins).
	top, _ := rs.TopK("level", 2, 0)
	for _, t := range top {
		fmt.Printf("vertex %d at level %v\n", t.Vertex, t.Value)
	}
	// Output:
	// reached: 4
	// level[3] = 2
	// vertex 3 at level 2
	// vertex 1 at level 1
}

// degreeCount is a custom vertex program: it counts each vertex's
// out-degree from the streamed edge list (trivial on purpose — the
// point is the registration and serving machinery around it).
type degreeCount struct {
	MinDegree int
	Degrees   []uint32
}

func (d *degreeCount) Init(eng flashgraph.RunContext) {
	d.Degrees = make([]uint32, eng.NumVertices())
	eng.ActivateAllSeeds()
}
func (d *degreeCount) Run(ctx *flashgraph.Ctx, v flashgraph.VertexID) {
	if int(ctx.OutDegree(v)) >= d.MinDegree {
		ctx.RequestSelf(flashgraph.OutEdges)
	}
}
func (d *degreeCount) RunOnVertex(ctx *flashgraph.Ctx, v flashgraph.VertexID, pv *flashgraph.PageVertex) {
	d.Degrees[v] = uint32(pv.NumEdges())
}
func (d *degreeCount) RunOnMessage(ctx *flashgraph.Ctx, v flashgraph.VertexID, msg flashgraph.Message) {
}
func (d *degreeCount) Result() *flashgraph.ResultSet {
	rs := flashgraph.NewResultSet("degreecount")
	rs.AddUint32("degree", d.Degrees)
	return rs
}

// Any vertex program can be served next to the built-ins: describe it
// with an AlgorithmSpec (name, doc, capability requirements, typed
// params), register it, and every Server — and fg-serve daemon — can
// run it over HTTP or in-process, with the same strict param
// validation and typed results the built-ins get. examples/custom
// shows the full HTTP round trip.
func Example_customAlgorithm() {
	spec := flashgraph.AlgorithmSpec{
		Name: "degreecount",
		Doc:  "per-vertex out-degree of vertices with at least min_degree out-edges",
		Params: struct {
			MinDegree int `json:"min_degree"`
		}{},
		New: func(raw json.RawMessage, g flashgraph.GraphMeta) (flashgraph.Program, error) {
			var p struct {
				MinDegree int `json:"min_degree"`
			}
			if err := flashgraph.DecodeParams(raw, &p); err != nil {
				return nil, err
			}
			return &degreeCount{MinDegree: p.MinDegree}, nil
		},
	}

	cat := flashgraph.NewCatalog(flashgraph.Options{CacheBytes: 1 << 20})
	defer cat.Close()
	if _, err := cat.Add("star", flashgraph.NewGraph(4, []flashgraph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2},
	}, flashgraph.Directed)); err != nil {
		panic(err)
	}
	srv, err := flashgraph.NewServer(cat, flashgraph.ServerConfig{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	// Register on this server alone (flashgraph.Register would publish
	// it process-wide instead).
	if err := srv.Register(spec); err != nil {
		panic(err)
	}

	id, err := srv.Submit(flashgraph.Request{
		Algo:   "degreecount",
		Params: json.RawMessage(`{"min_degree":2}`),
	})
	if err != nil {
		panic(err)
	}
	if _, err := srv.Wait(id); err != nil {
		panic(err)
	}
	e, _ := srv.Lookup(id, "degree", 0)
	fmt.Printf("degree[0] = %v\n", e.Value)

	// Typed params are strict: unknown fields name the accepted ones.
	_, err = srv.Submit(flashgraph.Request{
		Algo:   "degreecount",
		Params: json.RawMessage(`{"mindeg":2}`),
	})
	fmt.Println(err)
	// Output:
	// degree[0] = 3
	// degreecount: serve: bad algorithm params: unknown param "mindeg" (accepted params: min_degree (integer))
}

// The serving QoS tier layers two protections over the scheduler —
// priority classes with reserved interactive slots, and an
// exact-result cache with single-flight coalescing — and neither needs
// configuring. Classes are inferred from each algorithm's capabilities
// and effective parameters (source-anchored point queries are
// interactive, long iterative sweeps are batch) and overridable per
// request; cache hits return the bit-identical ResultSet without
// re-running.
func Example_servingQoS() {
	cat := flashgraph.NewCatalog(flashgraph.Options{CacheBytes: 1 << 20})
	defer cat.Close()
	if _, err := cat.Add("social", flashgraph.NewGraph(4, []flashgraph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	}, flashgraph.Directed)); err != nil {
		panic(err)
	}
	srv, err := flashgraph.NewServer(cat, flashgraph.ServerConfig{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	submit := func(class string) flashgraph.Query {
		id, err := srv.Submit(flashgraph.Request{
			Algo:   "bfs",
			Params: json.RawMessage(`{"src":0}`),
			Class:  class, // "" infers from the algorithm
		})
		if err != nil {
			panic(err)
		}
		q, err := srv.Wait(id)
		if err != nil {
			panic(err)
		}
		return q
	}

	q1 := submit("")
	fmt.Printf("alice: class %s, cache %q\n", q1.Class, q1.Cache)

	// A second caller's identical request answers from the result
	// cache — same checksum, no second execution — and the override
	// files it as batch.
	q2 := submit("batch")
	fmt.Printf("bob: class %s, cache %q, identical %v\n",
		q2.Class, q2.Cache, q1.Result["checksum"] == q2.Result["checksum"])
	// Output:
	// alice: class interactive, cache ""
	// bob: class batch, cache "hit", identical true
}

// A Catalog serves many named graphs from ONE shared substrate — a
// single SAFS instance, page cache, and simulated SSD array — so the
// paper's amortization extends across graphs, not just queries.
// fg-serve exposes exactly this over HTTP, routing requests by graph
// name.
func ExampleCatalog() {
	cat := flashgraph.NewCatalog(flashgraph.Options{CacheBytes: 1 << 20})
	defer cat.Close()

	chain, _ := cat.Add("chain", flashgraph.NewGraph(4, []flashgraph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	}, flashgraph.Directed))
	star, _ := cat.Add("star", flashgraph.NewGraph(4, []flashgraph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
	}, flashgraph.Directed))

	for _, g := range []struct {
		name string
		eng  *flashgraph.Engine
	}{{"chain", chain}, {"star", star}} {
		bfs := flashgraph.NewBFS(0)
		if _, err := g.eng.Run(bfs); err != nil {
			panic(err)
		}
		e, _ := bfs.Result().Lookup("level", 3)
		fmt.Printf("%s: level[3] = %v\n", g.name, e.Value)
	}
	// Output:
	// chain: level[3] = 3
	// star: level[3] = 1
}
