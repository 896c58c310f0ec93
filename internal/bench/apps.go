package bench

import (
	"fmt"
	"time"

	"flashgraph/internal/algo"
	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/baseline/powergraph"
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// Apps is the paper's application set, in its order.
var Apps = []string{"BFS", "BC", "WCC", "PR", "TC", "SS"}

// bfsSource picks the highest out-degree vertex: a hub source reaches
// the bulk of a power-law graph, like the paper's traversals.
func bfsSource(img *graph.Image) graph.VertexID {
	best := graph.VertexID(0)
	var bestDeg uint32
	for v := 0; v < img.NumV; v++ {
		if d := img.OutIndex.Degree(graph.VertexID(v)); d > bestDeg {
			bestDeg = d
			best = graph.VertexID(v)
		}
	}
	return best
}

// newAlg instantiates the vertex program for an app name.
func newAlg(app string, img *graph.Image) core.Algorithm {
	switch app {
	case "BFS":
		return algo.NewBFS(bfsSource(img))
	case "BC":
		return algo.NewBC(bfsSource(img))
	case "WCC":
		return algo.NewWCC()
	case "PR":
		return algo.NewPageRank()
	case "TC":
		return algo.NewTC()
	case "SS":
		return algo.NewScanStat()
	}
	panic("bench: unknown app " + app)
}

// engineConfig builds the core config for one app run; what an app needs
// beyond it (scan statistics' schedule and window, §3.7) its program brings.
func engineConfig(cfg Config) core.Config {
	return core.Config{Threads: cfg.Threads, RangeShift: 6}
}

// runSEM runs one app on a dataset in semi-external memory with the
// given cache fraction, returning the stats. Engine, filesystem, and
// array are created fresh (experiments are isolated).
func runSEM(cfg Config, d *Dataset, app string, cacheFrac float64) (core.RunStats, error) {
	return runSEMPage(cfg, d, app, cacheFrac, 0, nil)
}

// runSEMPage additionally overrides the page size and engine mutator.
func runSEMPage(cfg Config, d *Dataset, app string, cacheFrac float64, pageSize int, mutate func(*core.Config)) (core.RunStats, error) {
	return runSEMBytes(cfg, d, app, cacheBytesFor(d, cacheFrac, pageSize), pageSize, mutate)
}

// runSEMBytes pins the cache to an absolute byte size — Figure 13 holds
// cache bytes constant while sweeping the page size, exactly as the
// paper keeps its 1GB cache across page sizes.
func runSEMBytes(cfg Config, d *Dataset, app string, cacheBytes int64, pageSize int, mutate func(*core.Config)) (core.RunStats, error) {
	fs, arr := newFS(cfg, cacheBytes, pageSize)
	defer arr.Close()
	ec := engineConfig(cfg)
	ec.FS = fs
	if mutate != nil {
		mutate(&ec)
	}
	eng, err := core.NewEngine(d.Img, ec)
	if err != nil {
		return core.RunStats{}, err
	}
	st, err := eng.Run(newAlg(app, d.Img))
	st.Algorithm = app
	return st, err
}

// runMem runs one app on the in-memory engine (FG-mem).
func runMem(cfg Config, d *Dataset, app string) (core.RunStats, error) {
	ec := engineConfig(cfg)
	ec.InMemory = true
	eng, err := core.NewEngine(d.Img, ec)
	if err != nil {
		return core.RunStats{}, err
	}
	st, err := eng.Run(newAlg(app, d.Img))
	st.Algorithm = app
	return st, err
}

// runGalois times the hand-optimized in-memory baseline.
func runGalois(d *Dataset, app string) (time.Duration, error) {
	ref := d.Ref()
	src := bfsSource(d.Img)
	start := time.Now()
	switch app {
	case "BFS":
		galois.BFS(ref, src)
	case "BC":
		galois.BC(ref, src)
	case "WCC":
		galois.WCC(ref)
	case "PR":
		galois.PageRankDelta(ref, 30, 0.85, 1e-7)
	case "TC":
		galois.TriangleCount(ref)
	case "SS":
		galois.ScanStat(ref)
	default:
		return 0, fmt.Errorf("bench: unknown app %s", app)
	}
	return time.Since(start), nil
}

// runPowerGraph times the GAS in-memory baseline.
func runPowerGraph(cfg Config, d *Dataset, app string) (time.Duration, error) {
	e := powergraph.New(d.Ref(), cfg.Threads)
	src := bfsSource(d.Img)
	start := time.Now()
	switch app {
	case "BFS":
		powergraph.RunBFS(e, src)
	case "BC":
		powergraph.RunBC(e, src)
	case "WCC":
		powergraph.RunWCC(e)
	case "PR":
		powergraph.RunPageRank(e, 30, 0.85, 1e-7)
	case "TC":
		powergraph.RunTC(e)
	case "SS":
		powergraph.RunScanStat(e)
	default:
		return 0, fmt.Errorf("bench: unknown app %s", app)
	}
	return time.Since(start), nil
}

// prPhases runs PageRank on SEM and splits stats at iteration 15 (the
// paper's PR1 = first 15 iterations, PR2 = last 15; Figure 9).
func prPhases(cfg Config, d *Dataset, cacheFrac float64) (pr1, pr2 core.RunStats, err error) {
	fs, arr := newFS(cfg, cacheBytesFor(d, cacheFrac, 0), 0)
	defer arr.Close()
	ec := engineConfig(cfg)
	ec.FS = fs
	eng, err := core.NewEngine(d.Img, ec)
	if err != nil {
		return
	}
	split := &prSplitter{PageRank: algo.NewPageRank(), fs: fs, at: 15}
	total, err := eng.Run(split)
	if err != nil {
		return
	}
	pr1 = split.firstStats
	pr1.Algorithm = "PR1"
	pr1.CPUUtil = total.CPUUtil
	pr2 = core.RunStats{
		Algorithm:   "PR2",
		Iterations:  total.Iterations - pr1.Iterations,
		Elapsed:     total.Elapsed - pr1.Elapsed,
		BytesRead:   total.BytesRead - pr1.BytesRead,
		DeviceReads: total.DeviceReads - pr1.DeviceReads,
		CacheHits:   total.CacheHits - pr1.CacheHits,
		CacheMisses: total.CacheMisses - pr1.CacheMisses,
		CPUUtil:     total.CPUUtil,
	}
	return
}

// prSplitter wraps PageRank with an iteration hook that snapshots the
// filesystem counters when the 15th iteration completes.
type prSplitter struct {
	*algo.PageRank
	fs *safs.FS
	at int

	start                time.Time
	baseHits, baseMisses int64
	baseReads, baseBytes int64
	firstStats           core.RunStats
	captured             bool
}

// Init implements core.Algorithm, capturing the baseline counters.
func (s *prSplitter) Init(eng core.ExecutionEngine) {
	s.PageRank.Init(eng)
	s.start = time.Now()
	cs := s.fs.Cache().Stats()
	as := s.fs.Array().Stats()
	s.baseHits, s.baseMisses = cs.Hits, cs.Misses
	s.baseReads, s.baseBytes = as.Reads, as.BytesRead
}

// OnIterationEnd implements core.IterationHook: snapshot after the
// `at`-th iteration.
func (s *prSplitter) OnIterationEnd(eng *core.Engine) {
	if s.captured || eng.Iteration() != s.at-1 {
		return
	}
	s.captured = true
	cs := s.fs.Cache().Stats()
	as := s.fs.Array().Stats()
	s.firstStats = core.RunStats{
		Iterations:  s.at,
		Elapsed:     time.Since(s.start),
		BytesRead:   as.BytesRead - s.baseBytes,
		DeviceReads: as.Reads - s.baseReads,
		CacheHits:   cs.Hits - s.baseHits,
		CacheMisses: cs.Misses - s.baseMisses,
	}
}
