package flashgraph

// One testing.B benchmark per table and figure of the paper's
// evaluation (§5). Each benchmark iteration executes the complete
// experiment on the default-scale synthetic stand-ins with throttled
// simulated SSDs; `cmd/fg-bench` produces the same tables with
// human-readable output and adjustable scale.

import (
	"io"
	"testing"

	"flashgraph/internal/bench"
)

// benchCfg is the shared configuration: default dataset scale,
// throttled devices.
func benchCfg() bench.Config {
	return bench.Config{Threads: 8}
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(benchCfg(), io.Discard)
	}
}

func BenchmarkFig8SemVsMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := bench.Fig8(benchCfg(), io.Discard)
		// Surface the headline: mean SEM/mem relative performance.
		var sum float64
		for _, r := range rs {
			sum += r.Value
		}
		b.ReportMetric(sum/float64(len(rs)), "rel-perf")
	}
}

func BenchmarkFig9Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9(benchCfg(), io.Discard)
	}
}

func BenchmarkFig10Engines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(benchCfg(), io.Discard)
	}
}

func BenchmarkFig11ExternalEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := bench.Fig11(benchCfg(), io.Discard)
		// Headline: FlashGraph speedup over the fastest external engine
		// on WCC.
		var fg, best float64
		for _, r := range rs {
			if r.App != "WCC" {
				continue
			}
			if r.Variant == "FlashGraph" {
				fg = r.Value
			} else if best == 0 || r.Value < best {
				best = r.Value
			}
		}
		if fg > 0 {
			b.ReportMetric(best/fg, "speedup-vs-external")
		}
	}
}

func BenchmarkTable2PageGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(benchCfg(), io.Discard)
	}
}

func BenchmarkFig12SequentialIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := bench.Fig12(benchCfg(), io.Discard)
		// Headline: merge-FG speedup over random execution order (BFS).
		for _, r := range rs {
			if r.App == "BFS" && r.Variant == "random" && r.Value > 0 {
				b.ReportMetric(1/r.Value, "fg-over-random")
			}
		}
	}
}

func BenchmarkFig13PageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := bench.Fig13(benchCfg(), io.Discard)
		// Headline: how far 1MB pages fall below 4KB pages on BFS.
		for _, r := range rs {
			if r.App == "BFS" && r.Variant == "1.0MB" {
				b.ReportMetric(r.Value, "bfs-1MB-rel")
			}
		}
	}
}

func BenchmarkFig14CacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig14(benchCfg(), io.Discard)
	}
}

// Micro-benchmarks of the public API hot paths (not paper figures, but
// useful for regression tracking).

func BenchmarkAPIBFSInMemory(b *testing.B) {
	g := NewGraph(1<<12, GenerateRMAT(12, 8, 1), Directed)
	eng, err := Open(g, Options{InMemory: true, Threads: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(NewBFS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPIBFSSemiExternal(b *testing.B) {
	g := NewGraph(1<<12, GenerateRMAT(12, 8, 1), Directed)
	eng, err := Open(g, Options{Threads: 8, CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(NewBFS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPIPageRankSemiExternal(b *testing.B) {
	g := NewGraph(1<<12, GenerateRMAT(12, 8, 1), Directed)
	eng, err := Open(g, Options{Threads: 8, CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(NewPageRank()); err != nil {
			b.Fatal(err)
		}
	}
}
