// Command fg-bench regenerates the paper's evaluation tables and
// figures (each experiment's doc comment in internal/bench states the
// paper's result it reproduces).
//
// Usage:
//
//	fg-bench                  # everything, default scale
//	fg-bench -exp fig8        # one experiment
//	fg-bench -scale-add 2     # 4x larger datasets
//	fg-bench -no-throttle     # devices at memory speed (fast smoke)
//
// The concurrent multi-query driver (not a paper figure; a
// FalkorDB-benchmark-style workload generator) measures query latency
// under concurrency over ONE shared SAFS instance:
//
//	fg-bench -exp concurrent -clients 8 -requests 48 -max-concurrent 4
//	fg-bench -exp concurrent -qps 10 -mix bfs,pagerank,wcc,tc
//	fg-bench -exp encoding    # raw vs delta edge lists → BENCH_encoding.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"flashgraph/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fg-bench: ")
	var (
		exp        = flag.String("exp", "all", "all | table1 | fig8 | fig9 | fig10 | fig11 | table2 | fig12 | fig13 | fig14 | ablations | concurrent | serving | ingest | encoding | spmv | io | chaos")
		scaleAdd   = flag.Int("scale-add", 0, "log2 dataset scale adjustment")
		threads    = flag.Int("threads", 8, "engine worker threads")
		noThrottle = flag.Bool("no-throttle", false, "disable device timing")
		seed       = flag.Uint64("seed", 0, "generator seed offset")

		// -exp concurrent knobs (FalkorDB-benchmark-style driver).
		clients       = flag.Int("clients", 8, "concurrent: client worker-pool size")
		requests      = flag.Int("requests", 48, "concurrent: total queries")
		qps           = flag.Float64("qps", 0, "concurrent: target aggregate qps (0 = closed loop)")
		maxConcurrent = flag.Int("max-concurrent", 4, "concurrent: scheduler slots")
		mix           = flag.String("mix", "bfs,pagerank,wcc", "concurrent: comma-separated algorithm rotation")

		// -exp serving knobs (serving-QoS acceptance gauge, grown out of
		// -exp concurrent: priority classes, result cache, quotas).
		servInteractive = flag.Int("serving-interactive", 0, "serving: interactive probes per phase (0 = default 8)")
		servBatch       = flag.Int("serving-batch", 0, "serving: background batch queries per phase (0 = default 10)")
		servBatchIters  = flag.Int("serving-batch-iters", 0, "serving: pagerank sweeps per batch query (0 = default 24)")
		servSlots       = flag.Int("serving-slots", 0, "serving: scheduler slots (0 = default 4)")
		servJSON        = flag.String("serving-json", "BENCH_serving.json", "serving: machine-readable output path")

		// -exp ingest knobs (streaming image construction).
		ingestScale = flag.Int("ingest-scale", 0, "ingest: RMAT log2 vertex count (0 = bench default)")
		ingestEPV   = flag.Int("ingest-epv", 0, "ingest: edges per vertex (0 = default 16)")
		ingestJSON  = flag.String("ingest-json", "BENCH_ingest.json", "ingest: machine-readable output path")

		// -exp encoding knobs (raw vs delta edge-list layouts).
		encScale   = flag.Int("encoding-scale", 0, "encoding: RMAT log2 vertex count (0 = default 20)")
		encEPV     = flag.Int("encoding-epv", 0, "encoding: edges per vertex (0 = default 16)")
		encCacheMB = flag.Int64("encoding-cache", 0, "encoding: serving page cache MiB (0 = default 64)")
		encJSON    = flag.String("encoding-json", "BENCH_encoding.json", "encoding: machine-readable output path")

		// -exp io knobs (raw I/O path: decode CPU + submission shape).
		ioScale   = flag.Int("io-scale", 0, "io: RMAT log2 vertex count (0 = default 20)")
		ioEPV     = flag.Int("io-epv", 0, "io: edges per vertex (0 = default 16)")
		ioCacheMB = flag.Int64("io-cache", 0, "io: SAFS page cache MiB (0 = default 64)")
		ioIters   = flag.Int("io-iters", 0, "io: full-sweep PageRank iterations (0 = default 30)")
		ioDirect  = flag.Bool("io-direct", false, "io: open device files with O_DIRECT where supported")
		ioJSON    = flag.String("io-json", "BENCH_io.json", "io: machine-readable output path")

		// -exp chaos knobs (fault-tolerance acceptance gauge).
		chaosProbes = flag.Int("chaos-probes", 0, "chaos: interactive bfs probes per phase (0 = default 6)")
		chaosSweeps = flag.Int("chaos-sweeps", 0, "chaos: pagerank sweeps per phase (0 = default 2)")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "chaos: fault-injection seed (0 = default 1)")
		chaosJSON   = flag.String("chaos-json", "BENCH_chaos.json", "chaos: machine-readable output path")

		// -exp spmv knobs (execution-engine crossover).
		spmvScale   = flag.Int("spmv-scale", 0, "spmv: RMAT log2 vertex count (0 = default 20)")
		spmvEPV     = flag.Int("spmv-epv", 0, "spmv: edges per vertex (0 = default 16)")
		spmvCacheMB = flag.Int64("spmv-cache", 0, "spmv: vertex-engine page cache MiB (0 = default 64)")
		spmvIters   = flag.Int("spmv-iters", 0, "spmv: PageRank sweep count (0 = default 30)")
		spmvJSON    = flag.String("spmv-json", "BENCH_spmv.json", "spmv: machine-readable output path")
	)
	flag.Parse()

	cfg := bench.Config{
		ScaleAdd:   *scaleAdd,
		Threads:    *threads,
		NoThrottle: *noThrottle,
		Seed:       *seed,
	}
	start := time.Now()
	w := os.Stdout
	switch *exp {
	case "all":
		bench.RunAll(cfg, w)
	case "table1":
		bench.Table1(cfg, w)
	case "fig8":
		bench.Fig8(cfg, w)
	case "fig9":
		bench.Fig9(cfg, w)
	case "fig10":
		bench.Fig10(cfg, w)
	case "fig11":
		bench.Fig11(cfg, w)
	case "table2":
		bench.Table2(cfg, w)
	case "fig12":
		bench.Fig12(cfg, w)
	case "fig13":
		bench.Fig13(cfg, w)
	case "fig14":
		bench.Fig14(cfg, w)
	case "ablations":
		bench.Ablations(cfg, w)
	case "ingest":
		bench.Ingest(cfg, bench.IngestConfig{
			Scale:    *ingestScale,
			EPV:      *ingestEPV,
			JSONPath: *ingestJSON,
		}, w)
	case "encoding":
		bench.EncodingExp(cfg, bench.EncodingConfig{
			Scale:    *encScale,
			EPV:      *encEPV,
			CacheMB:  *encCacheMB,
			JSONPath: *encJSON,
		}, w)
	case "io":
		bench.IOExp(cfg, bench.IOConfig{
			Scale:    *ioScale,
			EPV:      *ioEPV,
			CacheMB:  *ioCacheMB,
			Iters:    *ioIters,
			Direct:   *ioDirect,
			JSONPath: *ioJSON,
		}, w)
	case "spmv":
		bench.SpMVExp(cfg, bench.SpMVConfig{
			Scale:    *spmvScale,
			EPV:      *spmvEPV,
			CacheMB:  *spmvCacheMB,
			Iters:    *spmvIters,
			JSONPath: *spmvJSON,
		}, w)
	case "serving":
		bench.Serving(cfg, bench.ServingConfig{
			Interactive: *servInteractive,
			Batch:       *servBatch,
			BatchIters:  *servBatchIters,
			Slots:       *servSlots,
			JSONPath:    *servJSON,
		}, w)
	case "chaos":
		bench.Chaos(cfg, bench.ChaosConfig{
			Probes:    *chaosProbes,
			Sweeps:    *chaosSweeps,
			FaultSeed: *chaosSeed,
			JSONPath:  *chaosJSON,
		}, w)
	case "concurrent":
		bench.Concurrent(cfg, bench.ConcurrentConfig{
			Clients:       *clients,
			Requests:      *requests,
			QPS:           *qps,
			MaxConcurrent: *maxConcurrent,
			Mix:           strings.Split(*mix, ","),
		}, w)
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	fmt.Fprintf(os.Stderr, "fg-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
}
