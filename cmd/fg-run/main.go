// Command fg-run executes one registered algorithm over a FlashGraph
// image, semi-external (simulated SSD array) or in-memory, and prints its
// typed result summary and run statistics. The request takes the path a
// fg-serve query takes — registry spec, capability check, strict params —
// through an in-process server over a one-graph catalog, on the engine
// the image's layout picks: the vertex engine for raw and delta, the
// SpMV engine for block (which runs only algorithms with an SpMV form).
// An unknown -algo lists the registered names.
//
//	fg-run -graph twitter.fg -algo bfs                   # src defaults to the hub
//	fg-run -graph twitter.fg -algo pagerank -params '{"iters":10}' -cache-mb 64
//	fg-run -graph roads.fg -algo sssp -src 0             # weighted image
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"

	"flashgraph"
	"flashgraph/internal/util"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fg-run: ")
	var (
		graphPath = flag.String("graph", "", "FlashGraph image (fg-convert output)")
		algoName  = flag.String("algo", "bfs", "registered algorithm name")
		params    = flag.String("params", "{}", `algorithm params as a JSON object, e.g. '{"k":4}'`)
		src       = flag.Int("src", -1, `sugar for {"src":N} on algorithms that take a source (default: highest out-degree)`)
		inMemory  = flag.Bool("mem", false, "in-memory mode (FG-mem)")
		cacheMB   = flag.Int64("cache-mb", 64, "SAFS page cache size (MiB)")
		threads   = flag.Int("threads", 8, "worker threads")
		throttle  = flag.Bool("throttle", true, "realistic SSD timing")
	)
	flag.Parse()
	if *graphPath == "" {
		log.Fatal("need -graph (build one with fg-gen | fg-convert)")
	}
	g, err := flashgraph.LoadFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	cat := flashgraph.NewCatalog(flashgraph.Options{
		InMemory:   *inMemory,
		Threads:    *threads,
		CacheBytes: *cacheMB << 20,
		Throttle:   *throttle,
	})
	defer cat.Close()
	if _, err := cat.Add("graph", g); err != nil {
		log.Fatal(err)
	}
	srv, err := flashgraph.NewServer(cat, flashgraph.ServerConfig{MaxConcurrent: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	p := map[string]any{}
	if err := json.Unmarshal([]byte(*params), &p); err != nil || p == nil {
		log.Fatalf("-params %s: want a JSON object (%v)", *params, err)
	}
	for _, a := range srv.Algorithms() {
		if _, given := p["src"]; a.Name == *algoName && a.Caps.NeedsSrc && !given {
			p["src"] = *src
			if *src < 0 {
				p["src"] = hubVertex(g)
			}
		}
	}
	id, err := srv.Submit(flashgraph.Request{
		Algo:   *algoName,
		Params: flashgraph.MarshalParams(p),
	})
	if err != nil {
		log.Fatal(err)
	}
	q, _ := srv.Wait(id) // id was just issued: Wait cannot miss it
	if q.State != flashgraph.QueryDone {
		log.Fatal(q.Error)
	}

	scalars, _ := json.Marshal(q.Result["scalars"]) // keys sorted; null when the result has none
	fmt.Printf("%s %s\nscalars      %s\n", *algoName, q.Req.Params, scalars)
	if top, ok := q.Result["top"]; ok {
		fmt.Printf("top          %v\n", top)
	}
	st := q.Stats
	fmt.Printf("checksum     %v\nelapsed      %v (%d iterations)\n", q.Result["checksum"], st.Elapsed, st.Iterations)
	if !*inMemory {
		fmt.Printf("io           %s read, %d device reads (%.0f IOPS), %d merged requests from %d edge requests\n",
			util.HumanBytes(st.BytesRead), st.DeviceReads, st.IOPS(), st.MergedRequests, st.EdgeRequests)
		fmt.Printf("cache        %.1f%% hit rate\n", st.CacheHitRate()*100)
	}
	fmt.Printf("cpu          %.1f%% utilization, %v waiting on I/O\n", st.CPUUtil*100, st.WaitTime)
	fmt.Printf("memory       %s estimated footprint\n", util.HumanBytes(st.MemoryBytes))
}

// hubVertex picks the highest-out-degree vertex.
func hubVertex(g *flashgraph.Graph) (best flashgraph.VertexID) {
	var bestDeg uint32
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(flashgraph.VertexID(v)); d > bestDeg {
			best, bestDeg = flashgraph.VertexID(v), d
		}
	}
	return best
}
