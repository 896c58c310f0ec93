package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/util"
)

// MergeMode selects where edge-list I/O requests are merged (§3.6,
// Figure 12). It is the only merge switch in the tree: it decides how a
// worker cuts its batch of edge-list requests into SAFS ReadTasks and
// when it calls IOContext.Flush; SAFS itself has no mode and merges
// whatever one Flush holds.
type MergeMode int

const (
	// MergeFG merges in FlashGraph: each worker globally sorts the
	// requests of its running vertices, merges those touching the same
	// or adjacent pages into one ReadTask, and flushes after each — the
	// paper's design (lightweight, global view).
	MergeFG MergeMode = iota
	// MergeSAFS issues one ReadTask per edge list and flushes once per
	// batch, so SAFS sorts and merges the adjacent page loads.
	MergeSAFS
	// MergeNone issues one ReadTask per edge list and flushes after
	// each: no cross-request merging anywhere.
	MergeNone
)

// SchedMode selects vertex execution order within a worker (§3.7).
type SchedMode int

const (
	// SchedByID is the default scheduler. A program that implements
	// CustomScheduler runs in the order it asks for (scan statistics:
	// degree-descending); every other program runs in vertex-ID order,
	// alternating scan direction between iterations (edge lists are
	// ID-sorted on SSDs, so this maximizes merging, and the alternation
	// re-touches recently cached pages).
	SchedByID SchedMode = iota
	// SchedRandom shuffles each iteration's active vertices, whatever
	// the program asks for (the Figure 12 "random" baseline).
	SchedRandom
	// SchedCustom is a synonym of SchedByID, which already defers to a
	// CustomScheduler; it goes once benchmark/ stops spelling it.
	SchedCustom = SchedByID
)

// Config configures an engine: what a deployment decides (Threads,
// MaxRunning, InMemory, FS, GraphName, RangeShift) and what Figure 12
// switches (Merge, Sched). Work stealing and the alternating ID sweep
// are not settings: every run has both. What one algorithm needs — its order, a tighter running window, its
// iteration cap — travels with the program (CustomScheduler,
// RunningLimiter, IterationLimiter), so no caller has to remember it.
type Config struct {
	// Threads is the number of worker threads / horizontal partitions.
	// Default 8.
	Threads int
	// MaxRunning bounds vertices in the running state per thread
	// (paper: no gains past 4000). Default 4000. A program's
	// RunningLimiter can only tighten it.
	MaxRunning int
	// RangeShift is the granule of range partitioning (§3.8): the
	// vertices v >> RangeShift share an owner, and ranges of granules are
	// cut by edge bytes so each worker owns its share of the edges in
	// long runs on the SSDs (see newPartition). Default 8.
	RangeShift uint
	// Merge selects the I/O merging mode. Default MergeFG.
	Merge MergeMode
	// Sched selects the vertex scheduler. Default SchedByID.
	Sched SchedMode
	// InMemory runs with memory-resident edge lists instead of SAFS
	// (the FG-mem baseline of §5.1).
	InMemory bool
	// FS is the SAFS instance for semi-external-memory mode. Required
	// unless InMemory.
	FS *safs.FS
	// GraphName names the image's files inside FS. Default "graph".
	GraphName string
}

func (c *Config) setDefaults() {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.MaxRunning == 0 {
		c.MaxRunning = 4000
	}
	if c.RangeShift == 0 {
		c.RangeShift = 8
	}
	if c.GraphName == "" {
		c.GraphName = "graph"
	}
}

// Shared is the per-graph substrate that concurrent runs have in
// common: the immutable graph image, the SAFS files holding its edge
// lists (written exactly once — FlashGraph minimizes SSD wearout), and
// the engine configuration template. A Shared is safe for concurrent
// use: any number of per-run Engines stamped out by NewRun may execute
// simultaneously, sharing the in-memory index, the SAFS instance, its
// page cache, and the SSD array, while owning their vertex state,
// message buffers, active bitmaps, and iteration barriers privately.
type Shared struct {
	cfg      Config
	img      *graph.Image
	files    *graph.FSFiles // nil in in-memory mode
	loadTime time.Duration
	part     partition
}

// A range closes at min(rangeBytes, edge bytes / (Threads × rangesPerThread))
// of edge records, both directions counted (sized: CHANGES.md, ISSUE 25).
const (
	rangeBytes      = 128 << 10
	rangesPerThread = 16
)

// partition maps granules (v >> shift) to workers; spans lists each
// worker's vertex ranges [lo, hi) in ascending order.
type partition struct {
	shift uint
	owner []int32
	spans [][][2]int
}

// newPartition cuts img into ranges of consecutive granules by edge
// bytes, read off the index at granule boundaries (O(V >> shift)
// Locates), and deals each to the least-loaded worker from the one after
// the last owner, so R-MAT's hub-heavy first ranges cannot leave their
// owners ahead for good. An image too small for rangesPerThread ranges
// per worker gets one granule per range: (v >> shift) % threads.
func newPartition(img *graph.Image, threads int, shift uint) partition {
	n := img.NumV
	granules := (n + 1<<shift - 1) >> shift
	p := partition{shift, make([]int32, granules), make([][][2]int, threads)}
	perGranule := granules <= threads*rangesPerThread
	bytesBefore := func(v int) (b int64) { // 0 throughout when perGranule
		for _, ix := range []*graph.Index{img.OutIndex, img.InIndex} {
			switch {
			case ix == nil || perGranule:
			case v < n:
				off, _ := ix.Locate(graph.VertexID(v))
				b += off
			default:
				b += ix.FileSize()
			}
		}
		return b
	}
	target := min(rangeBytes, bytesBefore(n)/int64(threads*rangesPerThread))
	load := make([]int64, threads)
	w, lo, start := 0, 0, int64(0)
	for g := range granules {
		p.owner[g] = int32(w)
		hi := min((g+1)<<shift, n)
		end := bytesBefore(hi)
		if end-start < target && hi < n {
			continue
		}
		p.spans[w] = append(p.spans[w], [2]int{lo, hi})
		load[w] += end - start
		lo, start = hi, end
		next := (w + 1) % threads
		for k := 2; k <= threads; k++ {
			if c := (w + k) % threads; load[c] < load[next] {
				next = c
			}
		}
		w = next
	}
	return p
}

// of returns the worker that owns v.
func (p *partition) of(v graph.VertexID) int { return int(p.owner[v>>p.shift]) }

// NewShared loads img and prepares the shared substrate. In SEM mode
// the image's edge-list files are written into cfg.FS (the one SSD
// write FlashGraph performs); in in-memory mode the image's byte slices
// are used directly.
func NewShared(img *graph.Image, cfg Config) (*Shared, error) {
	cfg.setDefaults()
	if cfg.InMemory && img.FileBacked() {
		return nil, fmt.Errorf("core: in-memory mode requires a RAM-resident image; file-backed images (graph.OpenImageFile) serve in semi-external-memory mode")
	}
	s := &Shared{cfg: cfg, img: img}
	if s.Kind() == EngineVertex { // only the vertex engine's workers own vertex ranges
		s.part = newPartition(img, cfg.Threads, cfg.RangeShift)
	}
	start := time.Now()
	if !cfg.InMemory {
		if cfg.FS == nil {
			return nil, fmt.Errorf("core: semi-external-memory mode requires Config.FS")
		}
		files, err := img.LoadToFS(cfg.FS, cfg.GraphName)
		if err != nil {
			return nil, fmt.Errorf("core: loading image: %w", err)
		}
		s.files = files
	}
	s.loadTime = time.Since(start)
	return s, nil
}

// Image returns the loaded graph image.
func (s *Shared) Image() *graph.Image { return s.img }

// Config returns the configuration template per-run engines inherit.
func (s *Shared) Config() Config { return s.cfg }

// FS returns the SAFS instance (nil in in-memory mode).
func (s *Shared) FS() *safs.FS { return s.cfg.FS }

// LoadTime returns how long writing the image onto the SSDs took.
func (s *Shared) LoadTime() time.Duration { return s.loadTime }

// NewRun stamps out a lightweight per-run engine over the shared
// substrate. Each run owns its active bitmaps, workers (and their I/O
// contexts and message buffers), iteration counter, and statistics, so
// runs created from one Shared may execute concurrently.
func (s *Shared) NewRun() *Engine {
	e := &Engine{runBase: s.newRunBase()}
	e.activeCur = util.NewBitmap(s.img.NumV)
	e.activeNext = util.NewBitmap(s.img.NumV)
	e.workers = make([]*worker, s.cfg.Threads)
	for i := range e.workers {
		e.workers[i] = newWorker(e, i)
	}
	return e
}

// Engine executes vertex programs over one loaded graph image. An
// Engine is ONE run context: it executes one algorithm at a time
// (reusable serially across runs). For concurrent queries over the same
// graph, create one Engine per query via Shared.NewRun — everything in
// this struct is private to the run; everything shared lives in Shared.
type Engine struct {
	runBase

	workers []*worker

	// activeNext is the next iteration's frontier and the only record of
	// it: the barrier asks the bitmap whether anything is set, so an
	// activation writes nothing but its own bit.
	activeCur  *util.Bitmap
	activeNext *util.Bitmap

	// pendingReqs counts outstanding edge-list requests per vertex. One
	// array serves the run: a vertex is in the running state on exactly
	// one worker at a time, stolen or not, so workers touch disjoint
	// elements.
	pendingReqs []int32

	alg        Algorithm
	maxRunning int // Config.MaxRunning tightened by the program's RunningLimiter

	stats runCounters

	panicVal atomic.Value // first worker panic; aborts the run
}

// abortCause boxes a recorded panic value so panicVal always stores
// one concrete type (atomic.Value requirement) while keeping the
// original value — in particular an error's wrap chain, so a typed
// device failure (e.g. safs.ErrCorrupted) stays errors.Is-matchable
// after crossing the panic boundary.
type abortCause struct{ val any }

// recordPanic stores the first panic raised on a worker goroutine.
func (e *Engine) recordPanic(r any) {
	e.panicVal.CompareAndSwap(nil, &abortCause{val: r})
}

// abortErr reports the recorded worker panic, if any.
func (e *Engine) abortErr() error {
	if v := e.panicVal.Load(); v != nil {
		c := v.(*abortCause)
		if err, ok := c.val.(error); ok {
			return fmt.Errorf("core: run aborted by worker panic: %w", err)
		}
		return fmt.Errorf("core: run aborted by worker panic: %v", c.val)
	}
	return nil
}

// runCounters aggregates per-run statistics.
type runCounters struct {
	edgeRequests   int64 // vertex edge-list requests (pre-merge)
	mergedRequests int64 // ReadTasks issued (post-merge)
	messages       int64
	steals         int64
	waitNS         int64 // worker time blocked on I/O
	computeNS      int64 // worker time doing work
}

// RunStats reports what a Run cost — the numbers behind every figure in
// the paper's evaluation.
type RunStats struct {
	Algorithm  string
	Engine     string // which EngineKind executed the run
	Iterations int
	Elapsed    time.Duration

	// I/O (semi-external-memory mode; zero in-memory). EdgeRequests,
	// MergedRequests, BytesRead, CacheHits, and CacheMisses are counted
	// per run and stay accurate when concurrent runs share one SAFS
	// instance; DeviceReads and DeviceBusy are substrate-wide deltas
	// over the run's window.
	EdgeRequests   int64         // edge lists requested by vertex programs
	MergedRequests int64         // I/O requests after FlashGraph merging
	DeviceReads    int64         // requests that reached the SSDs
	BytesRead      int64         // bytes this run loaded (page granular)
	CacheHits      int64         // pages served without a device load
	CacheMisses    int64         // pages this run had to load
	DeviceBusy     time.Duration // summed virtual device busy time

	// Compute.
	Messages int64
	Steals   int64
	WaitTime time.Duration // worker time blocked waiting for I/O
	CPUUtil  float64       // compute time / (elapsed × threads)

	// MemoryBytes estimates the resident footprint: page cache + graph
	// index + algorithm vertex state (+ in-memory edge data when
	// InMemory).
	MemoryBytes int64
}

// IOThroughput returns the mean read bandwidth in bytes/second.
func (s RunStats) IOThroughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BytesRead) / s.Elapsed.Seconds()
}

// IOPS returns mean device read operations per second.
func (s RunStats) IOPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.DeviceReads) / s.Elapsed.Seconds()
}

// CacheHitRate returns page-cache hits / lookups.
func (s RunStats) CacheHitRate() float64 {
	t := s.CacheHits + s.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(t)
}

// NewEngine loads img and returns a run engine over a fresh Shared
// substrate — the single-query convenience path. Callers that serve
// many queries over one graph should create the Shared once and call
// NewRun per query.
func NewEngine(img *graph.Image, cfg Config) (*Engine, error) {
	s, err := NewShared(img, cfg)
	if err != nil {
		return nil, err
	}
	return s.NewRun(), nil
}

// Kind reports the execution model: message passing over selectively
// accessed edge lists.
func (e *Engine) Kind() EngineKind { return EngineVertex }

// PendingActivations returns how many vertices are activated for the
// next iteration so far. Iteration hooks use it to detect phase ends
// (e.g. betweenness centrality switching from forward BFS to back
// propagation when the frontier empties). It counts the bitmap, O(V/64):
// call it at phase boundaries, where no worker is activating.
func (e *Engine) PendingActivations() int64 {
	return int64(e.activeNext.Count())
}

// ActivateSeed activates v for the first iteration (call from
// Algorithm.Init) or for the next iteration (call from an
// IterationHook).
func (e *Engine) ActivateSeed(v graph.VertexID) { e.activeNext.Set(int(v)) }

// ActivateAllSeeds activates every vertex for the first iteration.
func (e *Engine) ActivateAllSeeds() { e.activeNext.SetAll() }

// phase runs fn on every worker in parallel and waits for completion.
func (e *Engine) phase(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		w := w
		w.cmds <- func() {
			defer wg.Done()
			fn(w)
		}
	}
	wg.Wait()
}

// Run executes a vertex program (core.Algorithm) to completion and
// returns its statistics. One Engine runs one algorithm at a time; to
// execute queries concurrently over the same graph, give each its own
// engine via Shared.NewRun.
func (e *Engine) Run(p Program) (RunStats, error) {
	alg, ok := p.(Algorithm)
	if !ok {
		return RunStats{}, fmt.Errorf("core: the message-passing engine runs vertex programs (core.Algorithm); %T is not one", p)
	}
	if err := e.shared.checkKind(EngineVertex); err != nil {
		return RunStats{}, err
	}
	if err := e.abortErr(); err != nil {
		return RunStats{}, fmt.Errorf("core: engine unusable after earlier panic: %w", err)
	}
	e.alg = alg
	e.maxRunning = e.cfg.MaxRunning
	if lim, ok := alg.(RunningLimiter); ok && lim.MaxRunning() > 0 {
		e.maxRunning = min(e.maxRunning, lim.MaxRunning())
	}
	e.iteration = 0
	e.stats = runCounters{}
	e.activeCur.Clear()
	e.activeNext.Clear()
	e.pendingReqs = make([]int32, e.img.NumV)

	// Snapshot counters so stats reflect this run only. Cache hits,
	// misses, and bytes come from the workers' per-context SAFS counters
	// and stay accurate when sibling runs share the substrate.
	var ioBase []safs.IOStats
	if !e.cfg.InMemory {
		ioBase = make([]safs.IOStats, len(e.workers))
		for i, w := range e.workers {
			ioBase[i] = w.ioctx.IOStats()
		}
	}
	chargeDevices := e.deviceWindow()

	for _, w := range e.workers {
		w.start()
	}
	defer func() {
		for _, w := range e.workers {
			w.stop()
		}
	}()

	start := time.Now()
	alg.Init(e)

	maxIters := iterationCap(alg)
	hook, _ := alg.(IterationHook)
	var deadlineErr error
	for {
		if maxIters > 0 && e.iteration >= maxIters {
			break
		}
		if deadlineErr = stopErr(e.ctx, e.iteration); deadlineErr != nil {
			// The boundary is quiescent (every phase barriered), so the
			// run ends cleanly with the stats accumulated so far.
			break
		}
		if !e.activeNext.Any() {
			break
		}
		// Swap active sets.
		e.activeCur, e.activeNext = e.activeNext, e.activeCur
		e.activeNext.Clear()

		// Build per-worker ordered active lists.
		e.phase(func(w *worker) { w.buildActiveList() })

		// Vertical partitioning: all parts of phase p run before p+1.
		maxParts := 1
		if vp, ok := alg.(VerticallyPartitioned); ok {
			for _, w := range e.workers {
				for _, v := range w.iterActive {
					if n := vp.NumParts(e, v); n > maxParts {
						maxParts = n
					}
				}
			}
		}
		for part := 0; part < maxParts && e.abortErr() == nil; part++ {
			p := part
			// Queue reset is its own barrier phase: work stealing may
			// probe any victim the moment the run phase starts, so every
			// queue must be loaded before any worker begins.
			e.phase(func(w *worker) { w.resetQueue() })
			e.phase(func(w *worker) { w.runPart(p) })
		}

		// Message phase: repeat until no worker produced new messages.
		// A worker panic aborts the rounds: its counters are no longer
		// trustworthy, so quiescence might never be reached.
		for e.abortErr() == nil {
			var delivered int64
			e.phase(func(w *worker) {
				atomic.AddInt64(&delivered, w.messagePhase())
			})
			if delivered == 0 {
				break
			}
		}

		// Per-vertex end-of-iteration notifications.
		if _, ok := alg.(IterationEnder); ok {
			e.phase(func(w *worker) { w.iterEndPhase() })
		}
		if hook != nil {
			hook.OnIterationEnd(e)
		}
		e.iteration++
		if e.abortErr() != nil {
			break
		}
	}
	if e.abortErr() != nil {
		// Abort cleanup: in-flight and staged loads are drained with
		// their tasks discarded so every pinned frame returns to the
		// SHARED page cache — a dead run must not shrink the cache for
		// its sibling queries.
		e.phase(func(w *worker) {
			if w.ioctx != nil {
				w.ioctx.DiscardPending()
			}
		})
	}
	e.phase(func(w *worker) { w.commit() })
	elapsed := time.Since(start)

	st := RunStats{
		Engine:         string(EngineVertex),
		Iterations:     e.iteration,
		Elapsed:        elapsed,
		EdgeRequests:   atomic.LoadInt64(&e.stats.edgeRequests),
		MergedRequests: atomic.LoadInt64(&e.stats.mergedRequests),
		Messages:       atomic.LoadInt64(&e.stats.messages),
		Steals:         atomic.LoadInt64(&e.stats.steals),
		WaitTime:       time.Duration(atomic.LoadInt64(&e.stats.waitNS)),
	}
	compute := time.Duration(atomic.LoadInt64(&e.stats.computeNS))
	if elapsed > 0 {
		st.CPUUtil = float64(compute) / (elapsed.Seconds() * float64(e.cfg.Threads) * float64(time.Second))
	}
	if !e.cfg.InMemory {
		for i, w := range e.workers {
			cur := w.ioctx.IOStats()
			st.CacheHits += cur.PageHits - ioBase[i].PageHits
			st.CacheMisses += cur.PageLoads - ioBase[i].PageLoads
			st.BytesRead += cur.BytesLoaded - ioBase[i].BytesLoaded
		}
	}
	chargeDevices(&st)
	st.MemoryBytes = e.memoryFootprint()
	if err := e.abortErr(); err != nil {
		// The run context is poisoned (vertex state and queues are
		// mid-flight inconsistent); the shared substrate is unaffected.
		// Callers discard this Engine and spawn a fresh run.
		return st, err
	}
	if deadlineErr != nil {
		return st, deadlineErr
	}
	return st, nil
}

// memoryFootprint estimates resident bytes: index + vertex state +
// cache (SEM) or edge data (in-memory).
func (e *Engine) memoryFootprint() int64 {
	m := e.img.IndexMemory()
	if ss, ok := e.alg.(StateSized); ok {
		m += ss.StateBytes()
	}
	if e.cfg.InMemory {
		m += e.img.DataSize()
	} else {
		m += int64(e.cfg.FS.Cache().Capacity()) * int64(e.cfg.FS.PageSize())
	}
	return m
}
