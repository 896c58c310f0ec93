package gen

import (
	"testing"

	"flashgraph/internal/graph"
)

// BenchmarkRMATStream draws the benchmark's scale-18 R-MAT stream
// (2^18 vertices, 16 edges each) into a sink that does nothing: the
// generator alone, on every core, reported per edge.
func BenchmarkRMATStream(b *testing.B) {
	const scale, epv = 18, 16
	for range b.N {
		if err := RMATStream(scale, epv, 1, func(graph.Edge) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N<<scale*epv), "ns/edge")
}
