package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/serve"
	"flashgraph/internal/ssd"
	"flashgraph/internal/util"
)

// ChaosConfig parameterizes the chaos experiment — the acceptance gauge
// for the fault-tolerance tier. It serves one fixed query mix four
// times on the twitter stand-in:
//
//	baseline:   fault-free; records every query's result checksum
//	transient:  EIO + short-read + latency-spike injection on all SSDs
//	corruption: silent bit flips on all SSDs
//	degraded:   one SSD hard-failing every transfer until it trips
//
// and panics unless the robustness claims hold: a completed query is
// bit-identical to the baseline (zero silent wrong results, in every
// phase), transient faults are absorbed by device retries with no
// query failing, every bit flip that reaches a query surfaces as a
// typed checksum error, and a dead device degrades service loudly —
// then comes back after ResetHealth.
type ChaosConfig struct {
	// Probes is the interactive BFS count (rotating sources) in the
	// mix. Default 6.
	Probes int
	// Sweeps is the PageRank sweep-query count in the mix. Default 2.
	Sweeps int
	// SweepIters is the iteration count of the first sweep (each
	// subsequent sweep adds one, keeping cache keys distinct). Default 8.
	SweepIters int
	// Slots is the scheduler's MaxConcurrent. Default 2 — queries run
	// mostly serialized so the injected fault sequence stays stable.
	Slots int
	// FaultSeed seeds the per-device injection RNGs (offset per device
	// and per phase). Default 1.
	FaultSeed uint64
	// EIORate / ShortReadRate / LatencyRate drive the transient phase.
	// Defaults 0.02 / 0.01 / 0.05 per device transfer.
	EIORate       float64
	ShortReadRate float64
	LatencyRate   float64
	// BitFlipRate drives the corruption phase. Default 0.02 per read.
	BitFlipRate float64
	// JSONPath receives the machine-readable report (fg-bench defaults
	// its flag to "BENCH_chaos.json").
	JSONPath string
}

func (c *ChaosConfig) setDefaults() {
	if c.Probes == 0 {
		c.Probes = 6
	}
	if c.Sweeps == 0 {
		c.Sweeps = 2
	}
	if c.SweepIters == 0 {
		c.SweepIters = 8
	}
	if c.Slots == 0 {
		c.Slots = 2
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 1
	}
	if c.EIORate == 0 {
		c.EIORate = 0.02
	}
	if c.ShortReadRate == 0 {
		c.ShortReadRate = 0.01
	}
	if c.LatencyRate == 0 {
		c.LatencyRate = 0.05
	}
	if c.BitFlipRate == 0 {
		c.BitFlipRate = 0.02
	}
}

// ChaosPhase is one phase's evidence.
type ChaosPhase struct {
	Name      string `json:"name"`
	Queries   int    `json:"queries"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	// WrongResults counts completed queries whose checksum diverged
	// from the baseline — silent corruption. Must be zero everywhere.
	WrongResults int `json:"wrong_results"`
	// DetectedCorruptions counts queries that failed with a typed
	// checksum (ErrCorrupted) error.
	DetectedCorruptions int `json:"detected_corruptions"`
	// TimedOut / Canceled count deadline and cancel failures (the
	// degraded phase uses neither; they exist for future mixes).
	TimedOut int `json:"timed_out"`
	Canceled int `json:"canceled"`
	// Injected* sum the fault-injector's counters across devices.
	InjectedEIOs       int64 `json:"injected_eios"`
	InjectedShortReads int64 `json:"injected_short_reads"`
	InjectedBitFlips   int64 `json:"injected_bit_flips"`
	InjectedLatencies  int64 `json:"injected_latencies"`
	// Retries / IOErrors are the device layer's view: transient
	// transfers re-driven, and transfers that failed even after retry.
	Retries  int64 `json:"retries"`
	IOErrors int64 `json:"io_errors"`
	// DegradedDevices counts devices tripped into fail-fast mode by the
	// end of the phase.
	DegradedDevices int     `json:"degraded_devices"`
	WallSec         float64 `json:"wall_sec"`
}

// ChaosReport is the BENCH_chaos.json artifact.
type ChaosReport struct {
	Dataset  string       `json:"dataset"`
	Vertices int          `json:"vertices"`
	Edges    int64        `json:"edges"`
	Seed     uint64       `json:"fault_seed"`
	Phases   []ChaosPhase `json:"phases"`
	// SilentWrongResults totals WrongResults across phases. The
	// experiment panics unless it is zero.
	SilentWrongResults int `json:"silent_wrong_results"`
	// RecoveredAfterReset is the degraded-phase coda: with injection
	// off and device health reset, a fresh probe completed and matched
	// the baseline checksum.
	RecoveredAfterReset bool `json:"recovered_after_reset"`
	// ProcessExits is definitionally zero when the report exists — the
	// harness writes it from the same process that served every fault.
	ProcessExits int `json:"process_exits"`
}

// chaosOutcome is one query's terminal state in one phase.
type chaosOutcome struct {
	done      bool
	checksum  string
	corrupted bool
	timeout   bool
	canceled  bool
	errMsg    string
}

// Chaos runs the fault-tolerance gauge and writes BENCH_chaos.json.
func Chaos(cfg Config, ccfg ChaosConfig, w io.Writer) []Result {
	cfg.setDefaults()
	ccfg.setDefaults()
	header(w, "Chaos: fault injection vs end-to-end integrity")

	d := TwitterSim(cfg)
	reqs := chaosMix(cfg, ccfg, d)
	fmt.Fprintf(w, "dataset %s: %s vertices, %s edges; mix = %d bfs probes + %d pagerank sweeps, %d slots, fault seed %d\n",
		d.Name, util.HumanCount(int64(d.Img.NumV)), util.HumanCount(d.Img.NumEdges),
		ccfg.Probes, ccfg.Sweeps, ccfg.Slots, ccfg.FaultSeed)

	report := ChaosReport{
		Dataset:  d.Name,
		Vertices: d.Img.NumV,
		Edges:    d.Img.NumEdges,
		Seed:     ccfg.FaultSeed,
	}

	// Baseline: fault-free run of the mix; its checksums are the oracle
	// every later phase is held to.
	baseline, basePhase := chaosPhase(cfg, ccfg, d, "baseline", reqs, nil, ssd.FaultConfig{}, 0)
	report.Phases = append(report.Phases, basePhase)
	for i, o := range baseline {
		if !o.done {
			panic(fmt.Sprintf("bench: baseline query %d failed with no faults injected: %s", i, o.errMsg))
		}
	}

	// Transient: every device injects retriable faults. The retry layer
	// must absorb all of them — same completions, same checksums.
	transientFC := ssd.FaultConfig{
		EIORate:       ccfg.EIORate,
		ShortReadRate: ccfg.ShortReadRate,
		LatencyRate:   ccfg.LatencyRate,
		LatencySpike:  200 * time.Microsecond,
	}
	_, ph := chaosPhase(cfg, ccfg, d, "transient", reqs, baseline, transientFC, 4)
	report.Phases = append(report.Phases, ph)

	// Corruption: silent bit flips. Nothing retries a lie — the
	// checksum layer must convert every flip a query touches into a
	// typed failure, and completed queries must still match baseline.
	corruptFC := ssd.FaultConfig{BitFlipRate: ccfg.BitFlipRate}
	_, ph = chaosPhase(cfg, ccfg, d, "corruption", reqs, baseline, corruptFC, 4)
	report.Phases = append(report.Phases, ph)

	// Degraded: device 0 fails every transfer. Retries exhaust, the
	// health counter trips it into fail-fast, queries fail loudly, the
	// server survives — and after ResetHealth a fresh probe succeeds.
	deadFC := ssd.FaultConfig{EIORate: 1}
	report.RecoveredAfterReset, ph = chaosDegradedPhase(cfg, ccfg, d, reqs, baseline, deadFC)
	report.Phases = append(report.Phases, ph)

	fmt.Fprintf(w, "%-11s %8s %8s %7s %7s %9s %9s %8s %8s\n",
		"phase", "queries", "done", "failed", "wrong", "corrupt", "faults", "retries", "degraded")
	for _, p := range report.Phases {
		report.SilentWrongResults += p.WrongResults
		faults := p.InjectedEIOs + p.InjectedShortReads + p.InjectedBitFlips + p.InjectedLatencies
		fmt.Fprintf(w, "%-11s %8d %8d %7d %7d %9d %9d %8d %8d\n",
			p.Name, p.Queries, p.Succeeded, p.Failed, p.WrongResults,
			p.DetectedCorruptions, faults, p.Retries, p.DegradedDevices)
	}

	// Acceptance: the gauge, not a tabulation.
	if report.SilentWrongResults != 0 {
		panic(fmt.Sprintf("bench: %d silent wrong results — a query completed with a checksum differing from baseline",
			report.SilentWrongResults))
	}
	tr := report.Phases[1]
	if tr.Failed != 0 || tr.Retries == 0 || tr.InjectedEIOs+tr.InjectedShortReads == 0 {
		panic(fmt.Sprintf("bench: transient phase not absorbed by retries: failed=%d retries=%d injected=%d",
			tr.Failed, tr.Retries, tr.InjectedEIOs+tr.InjectedShortReads))
	}
	co := report.Phases[2]
	if co.InjectedBitFlips == 0 || co.DetectedCorruptions != co.Failed {
		panic(fmt.Sprintf("bench: corruption phase: %d bit flips injected, %d failures but only %d typed as corruption",
			co.InjectedBitFlips, co.Failed, co.DetectedCorruptions))
	}
	dg := report.Phases[3]
	if dg.DegradedDevices == 0 || dg.Failed == 0 || !report.RecoveredAfterReset {
		panic(fmt.Sprintf("bench: degraded phase: degraded=%d failed=%d recovered=%t (want tripped, loud failures, recovery)",
			dg.DegradedDevices, dg.Failed, report.RecoveredAfterReset))
	}

	fmt.Fprintf(w, "transient: %d faults absorbed by %d retries, 0 query failures\n",
		tr.InjectedEIOs+tr.InjectedShortReads+tr.InjectedLatencies, tr.Retries)
	fmt.Fprintf(w, "corruption: %d bit flips injected, %d queries failed, every failure typed as corruption, 0 wrong results\n",
		co.InjectedBitFlips, co.Failed)
	fmt.Fprintf(w, "degraded: %d device(s) tripped fail-fast, %d loud failures, recovered after reset=%t\n",
		dg.DegradedDevices, dg.Failed, report.RecoveredAfterReset)

	if ccfg.JSONPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(ccfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "wrote %s\n", ccfg.JSONPath)
	}
	return []Result{
		{Exp: "chaos", Dataset: d.Name, App: "transient", Value: float64(tr.Retries),
			Extra: map[string]float64{"failed": float64(tr.Failed)}},
		{Exp: "chaos", Dataset: d.Name, App: "corruption", Value: float64(co.DetectedCorruptions),
			Extra: map[string]float64{"wrong_results": float64(report.SilentWrongResults)}},
		{Exp: "chaos", Dataset: d.Name, App: "degraded", Value: float64(dg.DegradedDevices),
			Extra: map[string]float64{"recovered": b2f(report.RecoveredAfterReset)}},
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// chaosMix builds the fixed request list every phase replays: probes
// first (interactive BFS over spread sources), then distinct-length
// pagerank sweeps.
func chaosMix(cfg Config, ccfg ChaosConfig, d *Dataset) []serve.Request {
	var reqs []serve.Request
	for _, src := range probeSources(d.Img, ccfg.Probes) {
		reqs = append(reqs, serve.Request{
			Algo:   "bfs",
			Params: serve.MarshalParams(serve.SrcParams{Src: src}),
		})
	}
	for i := 0; i < ccfg.Sweeps; i++ {
		reqs = append(reqs, serve.Request{
			Algo:   "pagerank",
			Params: serve.MarshalParams(serve.PageRankParams{Iters: ccfg.SweepIters + i}),
		})
	}
	return reqs
}

// probeSources returns n BFS sources spread over the vertex space,
// anchored at the max-degree vertex — distinct per probe so neither
// the cache nor single-flight collapses them.
func probeSources(img *graph.Image, n int) []graph.VertexID {
	out := make([]graph.VertexID, n)
	base := bfsSource(img)
	stride := graph.VertexID(img.NumV/n | 1)
	for i := range out {
		out[i] = (base + graph.VertexID(i)*stride) % graph.VertexID(img.NumV)
	}
	return out
}

// chaosServer stands up a server over the harness substrate with the
// first faultDevs of its stores FaultStore-wrapped (disarmed — the
// image loads faithfully; the caller arms them for the phase). No result
// is retained so every replay recomputes from the device layer.
func chaosServer(cfg Config, ccfg ChaosConfig, d *Dataset, fc ssd.FaultConfig, faultDevs int) (*serve.Server, []*ssd.FaultStore, *ssd.Array, func()) {
	stores := make([]ssd.Store, arrayDevices)
	var faults []*ssd.FaultStore
	for i := range stores {
		stores[i] = ssd.NewMemStore()
		if i < faultDevs {
			dfc := fc
			dfc.Seed = ccfg.FaultSeed + uint64(i)*0x9e3779b9
			f := ssd.NewFaultStore(stores[i], dfc)
			f.SetEnabled(false)
			faults = append(faults, f)
			stores[i] = f
		}
	}
	fs, arr := newFS(cfg, cacheBytesFor(d, d.CacheFrac1G, 0), 0, stores...)
	shared, err := core.NewShared(d.Img, core.Config{Threads: cfg.Threads, RangeShift: 6, FS: fs})
	if err != nil {
		panic(err)
	}
	srv := serve.New(shared, serve.Config{
		MaxConcurrent: ccfg.Slots,
		MaxQueued:     4 * (ccfg.Probes + ccfg.Sweeps + 8),
		MaxHistory:    4 * (ccfg.Probes + ccfg.Sweeps + 8),
		ResultBytes:   -1,
	})
	return srv, faults, arr, func() {
		srv.Close()
		arr.Close()
	}
}

// runChaosMix drives the request list to completion and scores each
// query against the baseline (nil for the baseline run itself).
func runChaosMix(srv *serve.Server, reqs []serve.Request, baseline []chaosOutcome, ph *ChaosPhase) []chaosOutcome {
	outcomes := make([]chaosOutcome, len(reqs))
	for i, req := range reqs {
		id, err := srv.Submit(req)
		if err != nil {
			// Submission never touches the device layer; any error here
			// is a harness bug, not an injected fault.
			panic(fmt.Sprintf("bench: chaos submit %d: %v", i, err))
		}
		q, err := srv.Wait(id)
		if err != nil {
			panic(err)
		}
		o := &outcomes[i]
		if q.State == serve.StateDone {
			o.done = true
			o.checksum, _ = q.Result["checksum"].(string)
		} else {
			o.corrupted = q.Corrupted
			o.timeout = q.Timeout
			o.canceled = q.Canceled
			o.errMsg = q.Error
		}
	}
	for i, o := range outcomes {
		ph.Queries++
		switch {
		case o.done:
			ph.Succeeded++
			if baseline != nil && o.checksum != baseline[i].checksum {
				ph.WrongResults++
			}
		default:
			ph.Failed++
			if o.corrupted {
				ph.DetectedCorruptions++
			}
			if o.timeout {
				ph.TimedOut++
			}
			if o.canceled {
				ph.Canceled++
			}
		}
	}
	return outcomes
}

// chaosPhase runs the mix once on a fresh substrate with fc armed on
// the first faultDevs devices.
func chaosPhase(cfg Config, ccfg ChaosConfig, d *Dataset, name string, reqs []serve.Request, baseline []chaosOutcome, fc ssd.FaultConfig, faultDevs int) ([]chaosOutcome, ChaosPhase) {
	srv, faults, arr, cleanup := chaosServer(cfg, ccfg, d, fc, faultDevs)
	defer cleanup()
	arr.ResetStats() // image load traffic is not the phase's evidence
	for _, f := range faults {
		f.SetEnabled(true)
	}

	ph := ChaosPhase{Name: name}
	start := time.Now()
	outcomes := runChaosMix(srv, reqs, baseline, &ph)
	ph.WallSec = time.Since(start).Seconds()
	chaosGather(&ph, faults, arr)
	return outcomes, ph
}

// chaosDegradedPhase kills device 0 outright, runs the mix, then
// proves recovery: injection off, health reset, one probe re-run and
// checked against baseline.
func chaosDegradedPhase(cfg Config, ccfg ChaosConfig, d *Dataset, reqs []serve.Request, baseline []chaosOutcome, fc ssd.FaultConfig) (recovered bool, ph ChaosPhase) {
	srv, faults, arr, cleanup := chaosServer(cfg, ccfg, d, fc, 1)
	defer cleanup()
	arr.ResetStats()
	for _, f := range faults {
		f.SetEnabled(true)
	}

	ph = ChaosPhase{Name: "degraded"}
	start := time.Now()
	runChaosMix(srv, reqs, baseline, &ph)
	chaosGather(&ph, faults, arr)

	// Recovery coda: the operator replaces the cable, resets health,
	// and the very first retry of the mix's lead probe must both
	// complete and agree with the baseline bit-for-bit (the dead-frame
	// cache rule guarantees no poisoned page survives the outage).
	for _, f := range faults {
		f.SetEnabled(false)
	}
	arr.ResetHealth()
	id, err := srv.Submit(reqs[0])
	if err != nil {
		panic(err)
	}
	q, err := srv.Wait(id)
	if err != nil {
		panic(err)
	}
	if q.State == serve.StateDone {
		recovered = q.Result["checksum"] == baseline[0].checksum
	}
	ph.WallSec = time.Since(start).Seconds()
	return recovered, ph
}

// chaosGather folds the injector and device counters into the phase.
func chaosGather(ph *ChaosPhase, faults []*ssd.FaultStore, arr *ssd.Array) {
	for _, f := range faults {
		fs := f.Stats()
		ph.InjectedEIOs += fs.EIOs
		ph.InjectedShortReads += fs.ShortReads
		ph.InjectedBitFlips += fs.BitFlips
		ph.InjectedLatencies += fs.Latencies
	}
	as := arr.Stats()
	ph.Retries = as.Retries
	ph.IOErrors = as.Errors
	ph.DegradedDevices = as.DegradedDevices
}
