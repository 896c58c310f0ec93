// Social: the paper's network-analysis motivation — triangle counting
// and scan statistics (anomaly detection via the maximum locality
// statistic [26]) on a power-law social graph, using the two most
// I/O-intensive access patterns FlashGraph supports: vertices reading
// many other vertices' edge lists, with scan statistics' own
// degree-descending schedule pruning the long tail.
//
//	go run ./examples/social
package main

import (
	"fmt"
	"log"

	"flashgraph"
)

func main() {
	// An RMAT "social network": heavy-tailed degrees like Twitter.
	const scale = 11
	edges := flashgraph.GenerateRMAT(scale, 12, 7)
	g := flashgraph.NewGraph(1<<scale, edges, flashgraph.Directed)
	fmt.Printf("social graph: %d users, %d follows\n", g.NumVertices(), g.NumEdges())

	// Triangle counting: cohesion of the network.
	eng, err := flashgraph.Open(g, flashgraph.Options{
		Threads:    4,
		CacheBytes: g.SizeBytes() / 4,
		Throttle:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	tc := flashgraph.NewTriangleCount()
	st, err := eng.Run(tc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntriangles: %d total in %v\n", tc.Total, st.Elapsed)
	// The most clustered users.
	bestV, bestT := 0, int64(-1)
	for v, n := range tc.PerVertex {
		if n > bestT {
			bestT, bestV = n, v
		}
	}
	fmt.Printf("most clustered user: %d with %d triangles\n", bestV, bestT)

	// Scan statistics on the same engine: the program brings the paper's
	// showcase for user-defined vertex scheduling with it — degree-
	// descending order and a small running window — so most vertices are
	// pruned without any I/O and the caller configures nothing.
	ss := flashgraph.NewScanStat()
	st2, err := eng.Run(ss)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscan statistics in %v:\n", st2.Elapsed)
	fmt.Printf("  max locality statistic %d at user %d\n", ss.Max, ss.ArgMax)
	fmt.Printf("  %d neighborhoods computed, %d pruned by the scheduler\n", ss.Computed, ss.Skipped)
	fmt.Printf("  (an unusually dense neighborhood is the anomaly signal of [26])\n")
}
