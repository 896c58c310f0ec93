package main

import (
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/ssd"
)

// Fixed settings. They are constants, echoed in every output, and never
// flags: two ledgers are comparable only if they were taken with the
// same ones.
const (
	engineThreads  = 2         // core.Config.Threads; nproc on the reference box
	rangeShift     = 6         // core.Config.RangeShift, as internal/bench uses
	ssdDevices     = 4         // simulated SSDs in the array
	stripeBytes    = 128 << 10 // RAID-0 stripe unit
	pageBytes      = 4096      // SAFS page size
	cacheDivisor   = 12        // SAFS cache = on-SSD bytes / 12 (paper: 1 GB over 13 GB)
	cacheFloorPage = 64        // cache floor in pages
	edgesPerVertex = 16        // RMAT edge factor
	loadClients    = 2         // goroutines issuing work in serve_mix
	serveSlots     = 2         // serve.Config.MaxConcurrent

	bfsSources     = 24 // bfs_sem queries per pass
	serveBFS       = 60 // serve_mix bfs queries per pass
	serveRepeatMod = 4  // every 4th bfs repeats an earlier source
	servePageRanks = 6  // serve_mix pagerank queries per pass (iters 8,10,..,18: all distinct)
	servePRIterLo  = 8
	servePRIterGap = 2
	pageRankIters  = 30
	minTimedPasses = 3 // with -seconds, passes may be cut by the clock, never below this

	// contractRunSeconds is BENCHMARK.json's run_seconds: with -seconds the
	// timed passes stop once this much time has gone by, but not before
	// minTimedPasses of them are done.
	contractRunSeconds = 15

	// ledgerSetups is how many times a full ledger run sets up (the last
	// one is kept): setup_s is one interval per set-up, and one sample
	// cannot be compared. With -seconds there is time for one.
	ledgerSetups = 3

	sampleEvery   = 256                    // 1 callback in 256 is timed, then scaled
	heapSampleGap = 100 * time.Millisecond // min spacing of forced-GC heap samples inside a run
)

// deviceModel is the device model internal/bench uses for every paper
// figure. Device time is modelled (virtual busy time paced against the
// wall clock), not measured on real flash.
func deviceModel(throttle bool) ssd.DeviceParams {
	return ssd.DeviceParams{
		RandOverhead: 40 * time.Microsecond,
		SeqOverhead:  2 * time.Microsecond,
		Bandwidth:    150 << 20,
		MaxAhead:     300 * time.Microsecond,
		Throttle:     throttle,
	}
}

// sizing is what the smoke test shrinks: graph scales, device pacing
// and pass counts. The command line always runs fullSize.
type sizing struct {
	batchScale int  // RMAT scale of pr_sem, bfs_sem, spmv_sweep
	serveScale int  // RMAT scale of serve_mix
	throttle   bool // pace devices against the wall clock
	probeIters int  // divisor applied to isolation-probe loop counts
	// ingestMem is the StreamBuilder's sort budget. extsort allocates it
	// up front; 96 MiB holds a scale-18 edge stream without spilling a run.
	ingestMem int64
}

var fullSize = sizing{batchScale: 18, serveScale: 16, throttle: true, probeIters: 1, ingestMem: 96 << 20}

// workloadSpec names one workload: what it runs, on which layout, and
// how many timed passes a full ledger run takes.
type workloadSpec struct {
	name     string
	why      string
	encoding graph.Encoding
	engine   core.EngineKind // the engine its queries run on (serve_mix: its pagerank queries)
	serve    bool
	// latencyPerQuery: a pass holds many queries, so the latency sample is
	// one per query; otherwise it is one per engine iteration.
	latencyPerQuery bool
	passes          int // timed passes of a full ledger run (after one warm-up pass)
}

var workloads = []workloadSpec{
	{
		name:     "pr_sem",
		why:      "PageRank x30 on the vertex engine, raw layout, SEM throttled: the message path does almost all the work and I/O is mostly hidden",
		encoding: graph.EncodingRaw,
		engine:   core.EngineVertex,
		passes:   6,
	},
	{
		name:     "bfs_sem",
		why:      "24 BFS queries back to back on the same raw image: no messages, each edge list touched once, so ssd+safs+pagecache do most of the work",
		encoding: graph.EncodingRaw,
		engine:   core.EngineVertex,
		passes:   8,

		latencyPerQuery: true,
	},
	{
		name:     "spmv_sweep",
		why:      "PageRank x30 then WCC on the SpMV engine over the block layout: large sequential stripe reads, no page cache, no messages, one compute goroutine",
		encoding: graph.EncodingBlock,
		engine:   core.EngineSpMV,
		passes:   12,
	},
	{
		name:     "serve_mix",
		why:      "closed loop of 2 HTTP clients, QoS on, delta layout: 60 bfs (every 4th a repeat) interleaved with 6 pagerank; the only load on serve, qos, result and the delta decoder",
		encoding: graph.EncodingDelta,
		engine:   core.EngineVertex,
		serve:    true,
		passes:   4,

		latencyPerQuery: true,
	},
}

func specByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) scale(sz sizing) int {
	if w.serve {
		return sz.serveScale
	}
	return sz.batchScale
}
