// Command fg-bench regenerates the paper's evaluation tables and
// figures (each experiment's doc comment in internal/bench states the
// paper's result it reproduces) and runs the fault-tolerance gauge.
// Every other measurement of this tree is a row of the ledger in
// benchmark/ (bash benchmark/run.sh).
//
// Usage:
//
//	fg-bench                  # every paper table and figure, default scale
//	fg-bench -exp fig8        # one experiment
//	fg-bench -scale-add 2     # 4x larger datasets
//	fg-bench -no-throttle     # devices at memory speed (fast smoke)
//	fg-bench -exp chaos       # seeded fault injection → BENCH_chaos.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"flashgraph/internal/bench"
)

var (
	chaosProbes = flag.Int("chaos-probes", 0, "chaos: interactive bfs probes per phase (0 = default 6)")
	chaosSweeps = flag.Int("chaos-sweeps", 0, "chaos: pagerank sweeps per phase (0 = default 2)")
	chaosSeed   = flag.Uint64("chaos-seed", 0, "chaos: fault-injection seed (0 = default 1)")
	chaosJSON   = flag.String("chaos-json", "BENCH_chaos.json", "chaos: machine-readable output path")
)

// experiments is the one list of what -exp accepts: the dispatch and the
// flag's help text are both read from it.
var experiments = []struct {
	name string
	run  func(bench.Config, io.Writer)
}{
	{"all", bench.RunAll},
	{"table1", rows(bench.Table1)},
	{"fig8", rows(bench.Fig8)},
	{"fig9", rows(bench.Fig9)},
	{"fig10", rows(bench.Fig10)},
	{"fig11", rows(bench.Fig11)},
	{"table2", rows(bench.Table2)},
	{"fig12", rows(bench.Fig12)},
	{"fig13", rows(bench.Fig13)},
	{"fig14", rows(bench.Fig14)},
	{"ablations", rows(bench.Ablations)},
	{"chaos", func(cfg bench.Config, w io.Writer) {
		bench.Chaos(cfg, bench.ChaosConfig{
			Probes:    *chaosProbes,
			Sweeps:    *chaosSweeps,
			FaultSeed: *chaosSeed,
			JSONPath:  *chaosJSON,
		}, w)
	}},
}

// rows adapts an experiment that also returns its table as []Result
// (the shape tests read those) to the dispatch signature.
func rows(f func(bench.Config, io.Writer) []bench.Result) func(bench.Config, io.Writer) {
	return func(cfg bench.Config, w io.Writer) { f(cfg, w) }
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fg-bench: ")
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	var (
		exp        = flag.String("exp", "all", strings.Join(names, " | "))
		scaleAdd   = flag.Int("scale-add", 0, "log2 dataset scale adjustment")
		threads    = flag.Int("threads", 8, "engine worker threads")
		noThrottle = flag.Bool("no-throttle", false, "disable device timing")
		seed       = flag.Uint64("seed", 0, "generator seed offset")
	)
	flag.Parse()

	cfg := bench.Config{
		ScaleAdd:   *scaleAdd,
		Threads:    *threads,
		NoThrottle: *noThrottle,
		Seed:       *seed,
	}
	start := time.Now()
	for _, e := range experiments {
		if e.name == *exp {
			e.run(cfg, os.Stdout)
			fmt.Fprintf(os.Stderr, "fg-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
			return
		}
	}
	log.Fatalf("unknown experiment %q (have %s)", *exp, strings.Join(names, ", "))
}
