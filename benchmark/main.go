// Command benchmark is the repository's performance ledger: four named
// workloads, six bounded end-to-end metrics plus the failure count, and
// per-layer attribution taken from outside the layers. See README.md.
//
//	go run ./benchmark -workload all [-seed N] [-out ledger.json]
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's contract)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or \"all\"")
		seed     = flag.Uint64("seed", 1, "seed: changes the graph and the source choice")
		secs     = flag.Float64("seconds", 0, "timed passes run until this many seconds have elapsed (at least 5 passes); 0 = the workload's full pass count")
		trace    = flag.Int("trace", -1, "0 = timed passes only, print the end-to-end metrics; 1 = traced pass, print the per-layer metrics; default both")
		out      = flag.String("out", "", "append this invocation's runs to a ledger file (for -compare)")
		compare  = flag.Bool("compare", false, "compare two ledger files: -compare old.json new.json")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json as this package declares it")
	)
	flag.Parse()

	switch {
	case *emit:
		blob, err := json.MarshalIndent(buildManifest(), "", "  ")
		check(err)
		fmt.Println(string(blob))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		check(compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)))
		return
	}

	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else if spec, ok := specByName(*workload); ok {
		specs = []workloadSpec{spec}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("-workload must be one of %s, or all", strings.Join(names, ", "))
	}
	if *trace < -1 || *trace > 1 {
		fatalf("-trace must be 0 or 1")
	}

	workDir, outDir, err := dirs()
	check(err)
	echoSettings(os.Stderr)

	failed := false
	for _, spec := range specs {
		mode := runMode{timed: *trace != 1, traced: *trace != 0, seconds: *secs, log: os.Stderr}
		if *secs == 0 {
			mode.passes, mode.setups = spec.passes, ledgerSetups
		}
		res, err := runWorkload(spec, fullSize, *seed, mode, workDir, outDir)
		check(err)
		printRun(os.Stderr, res)
		if *out != "" {
			check(appendLedger(*out, res))
		}
		if len(res.Failures) > 0 {
			failed = true
			for _, f := range res.Failures {
				fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", spec.name, f)
			}
		}
		if *trace >= 0 {
			check(printContractLine(os.Stdout, res, *trace))
		}
	}
	if failed {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// dirs returns where scratch files (image, device stores, sort runs) and
// trace files go: under benchmark/out of the checkout the command runs
// in, so nothing is written outside it.
func dirs() (work, out string, err error) {
	if _, err := os.Stat(filepath.Join("benchmark", "settings.go")); err != nil {
		return "", "", errors.New("run from the repository root (benchmark/ not found here)")
	}
	out = filepath.Join("benchmark", "out")
	work = filepath.Join(out, "tmp")
	return work, out, os.MkdirAll(work, 0o755)
}

func echoSettings(w io.Writer) {
	fmt.Fprintf(w, "settings: threads=%d devices=%d stripe=%dKiB page=%dB cache=data/%d (floor %d pages) rmat-epv=%d ingest-budget=%dMiB device={rand 40us, seq 2us, 150MB/s, ahead 300us, throttled} clients=%d slots=%d sample=1/%d GOMAXPROCS=%d %s\n",
		engineThreads, ssdDevices, stripeBytes>>10, pageBytes, cacheDivisor, cacheFloorPage, edgesPerVertex, fullSize.ingestMem>>20,
		loadClients, serveSlots, sampleEvery, runtime.GOMAXPROCS(0), runtime.Version())
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n== %s  seed=%d  scale=%d  %d vertices  %d edges  %.1f MiB on SSD  %d timed passes  %d/%d queries ok  failed_frac=%g\n",
		res.Workload, res.Seed, res.Scale, res.Vertices, res.Edges, float64(res.SSDBytes)/(1<<20),
		res.Passes, res.Attempted-res.Failed, res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, group := range []struct {
		decls []metricDecl
		vals  map[string]*measurement
	}{{endToEndDecls, res.EndToEnd}, {perLayerDecls, res.PerLayer}} {
		if group.vals == nil {
			continue
		}
		for _, d := range group.decls {
			m := group.vals[d.Name]
			extra := ""
			if len(m.Samples) > 1 {
				extra = fmt.Sprintf("   [min %.4g, max %.4g over %d passes]", slices.Min(m.Samples), slices.Max(m.Samples), len(m.Samples))
			}
			fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", d.Name, m.Value, m.Unit, extra)
		}
	}
	if res.Identity != "" {
		fmt.Fprintf(w, "  identity: %s\n", res.Identity)
	}
	if res.Trace != "" {
		fmt.Fprintf(w, "  trace: %s\n", res.Trace)
	}
}

// printContractLine prints the driver's result object: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
func printContractLine(w io.Writer, res *runResult, trace int) error {
	vals := res.EndToEnd
	if trace == 1 {
		vals = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(vals))
	for name, m := range vals {
		metrics[name] = mv{m.Value, m.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(res.Failures) == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}

// ledger is the file -out appends to and -compare reads: every run of
// every workload taken at one commit, each with its seed and samples.
type ledger struct {
	Note string       `json:"note,omitempty"`
	Runs []*runResult `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(blob, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func appendLedger(path string, res *runResult) error {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		l = &ledger{Note: "flashgraph benchmark ledger, written " + time.Now().UTC().Format(time.RFC3339)}
	} else if err != nil {
		return err
	}
	l.Runs = append(l.Runs, res)
	blob, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: contractRunSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	for _, d := range endToEndDecls {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayerDecls {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
