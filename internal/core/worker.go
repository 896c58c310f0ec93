package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/util"
)

const (
	// msgFlushThreshold is the per-destination buffered-message count
	// that triggers a flush (§3.4.1 bundling).
	msgFlushThreshold = 256
	// randomSeed seeds the per-worker SchedRandom shuffles.
	randomSeed uint64 = 1
)

// edgeReq is one vertex's request for one edge list, located via the
// in-memory index at request time.
type edgeReq struct {
	requester graph.VertexID
	target    graph.VertexID
	dir       graph.EdgeDir
	off, size int64
}

// envelope is a message or a multicast bundle bound for one partition.
type envelope struct {
	msg     Message
	to      graph.VertexID   // single delivery when targets == nil
	targets []graph.VertexID // multicast targets owned by the partition
}

// worker owns one horizontal partition of one run: an ordered active
// queue, a per-thread vertex scheduler, an I/O context, and message
// buffers (§3.3's worker threads). Workers are per-run state — sibling
// runs over the same Shared substrate each have their own set — so
// nothing here needs cross-run synchronization; the shared pieces
// (page cache, SSD array) synchronize internally.
type worker struct {
	id  int
	eng *Engine

	cmds chan func()
	wg   sync.WaitGroup

	ioctx *safs.IOContext // nil in in-memory mode

	// iterActive is this iteration's ordered active list (pristine);
	// active is the work queue for the current vertical part: stealing
	// pops from its tail under mu while the owner pops from the head.
	iterActive []graph.VertexID
	mu         sync.Mutex
	active     []graph.VertexID
	qpos       int

	running     int     // vertices in the running state
	pendingReqs []int32 // outstanding edge-list requests per vertex (global index)
	reqs        []edgeReq

	inboxMu sync.Mutex
	inbox   []envelope
	outbox  [][]envelope // per destination partition
	outCnt  int

	iterEnd []graph.VertexID // vertices that requested end-of-iteration

	rng        *util.RNG
	partCtx    *Ctx
	waitNS     int64
	busyNS     int64
	partWaitNS int64 // wait within the current phase (excluded from busy)
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		id:     id,
		eng:    e,
		cmds:   make(chan func()),
		outbox: make([][]envelope, e.cfg.Threads),
		rng:    util.NewRNG(randomSeed + uint64(id)*7919),
	}
	if !e.cfg.InMemory {
		w.ioctx = e.cfg.FS.NewContext()
	}
	return w
}

func (w *worker) start() {
	w.pendingReqs = make([]int32, w.eng.img.NumV)
	w.partCtx = &Ctx{eng: w.eng, w: w}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for cmd := range w.cmds {
			w.runCmd(cmd)
		}
	}()
}

// runCmd executes one phase command, containing panics (a vertex
// program blowing up, a fatal device read) to this run: the panic is
// recorded on the engine, which aborts the run with an error instead of
// the panic killing the process from a goroutine with no recover. The
// command's own defers (the phase barrier's wg.Done) still execute
// during unwinding, so sibling workers are never left waiting.
func (w *worker) runCmd(cmd func()) {
	defer func() {
		if r := recover(); r != nil {
			w.eng.recordPanic(r)
		}
	}()
	cmd()
}

func (w *worker) stop() {
	close(w.cmds)
	w.wg.Wait()
	w.cmds = make(chan func())
}

// commitTimes folds this worker's timing counters into the engine run
// stats (called via a phase, so it runs on the worker goroutine).
func (w *worker) commitTimes() {
	atomic.AddInt64(&w.eng.stats.waitNS, w.waitNS)
	atomic.AddInt64(&w.eng.stats.computeNS, w.busyNS)
	w.waitNS, w.busyNS = 0, 0
}

// ownsRange reports whether range g belongs to this worker.
func (w *worker) ownsRange(g int) bool {
	return g%w.eng.cfg.Threads == w.id
}

// buildActiveList collects this worker's active vertices in schedule
// order (§3.7): ID order (alternating direction), random, or custom.
func (w *worker) buildActiveList() {
	e := w.eng
	w.iterActive = w.iterActive[:0]
	rangeSize := 1 << e.cfg.RangeShift
	numV := e.img.NumV
	for g := w.id; g*rangeSize < numV; g += e.cfg.Threads {
		lo := g * rangeSize
		hi := lo + rangeSize
		if hi > numV {
			hi = numV
		}
		for v := lo; v < hi; v++ {
			if e.activeCur.Get(v) {
				w.iterActive = append(w.iterActive, graph.VertexID(v))
			}
		}
	}
	switch e.cfg.Sched {
	case SchedByID:
		if !e.cfg.NoAlternateSweep && !e.sweepDirection() {
			for i, j := 0, len(w.iterActive)-1; i < j; i, j = i+1, j-1 {
				w.iterActive[i], w.iterActive[j] = w.iterActive[j], w.iterActive[i]
			}
		}
	case SchedRandom:
		for i := len(w.iterActive) - 1; i > 0; i-- {
			j := w.rng.Intn(i + 1)
			w.iterActive[i], w.iterActive[j] = w.iterActive[j], w.iterActive[i]
		}
	case SchedCustom:
		if cs, ok := e.alg.(CustomScheduler); ok {
			cs.Order(e, w.iterActive)
		}
	}
}

// resetQueue loads the pristine iteration list into the work queue at
// the start of a vertical part.
func (w *worker) resetQueue() {
	w.mu.Lock()
	w.active = append(w.active[:0], w.iterActive...)
	w.qpos = 0
	w.mu.Unlock()
}

// sweepDirection reports the scan direction for this iteration (true =
// ascending).
func (e *Engine) sweepDirection() bool { return e.iteration%2 == 0 }

// pop takes the next active vertex (owner side).
func (w *worker) pop() (graph.VertexID, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.qpos >= len(w.active) {
		return 0, false
	}
	v := w.active[w.qpos]
	w.qpos++
	return v, true
}

// stealFrom takes a chunk from the tail of another worker's queue.
func (w *worker) stealFrom(victim *worker) []graph.VertexID {
	victim.mu.Lock()
	defer victim.mu.Unlock()
	avail := len(victim.active) - victim.qpos
	if avail <= 1 {
		return nil
	}
	k := avail / 4
	if k < 1 {
		k = 1
	}
	if k > 256 {
		k = 256
	}
	stolen := make([]graph.VertexID, k)
	copy(stolen, victim.active[len(victim.active)-k:])
	victim.active = victim.active[:len(victim.active)-k]
	return stolen
}

// runPart executes vertical partition `part` of all active vertices in
// this worker's queue, overlapping vertex execution with I/O: it keeps
// up to MaxRunning vertices in the running state, merges and issues
// their edge-list requests, and processes completions (which execute
// RunOnVertex inside the page cache) as they arrive.
func (w *worker) runPart(part int) {
	e := w.eng
	vp, _ := e.alg.(VerticallyPartitioned)
	ctx := w.partCtx
	ctx.part = part
	ctx.inMsgs = false

	busyStart := time.Now()
	defer func() { w.busyNS += int64(time.Since(busyStart)) - atomic.SwapInt64(&w.partWaitNS, 0) }()

	runOne := func(v graph.VertexID) {
		if vp != nil && part >= vp.NumParts(e, v) {
			return
		}
		ctx.cur = v
		before := len(w.reqs)
		e.alg.Run(ctx, v)
		if len(w.reqs) > before || w.pendingReqs[v] > 0 {
			w.running++
		}
	}

	for e.abortErr() == nil {
		// Fill the running set from the queue.
		for w.running < e.cfg.MaxRunning {
			v, ok := w.pop()
			if !ok {
				break
			}
			runOne(v)
		}
		// Issue accumulated requests (merged).
		w.issue()

		if w.running > 0 {
			// Process completions; block only when nothing is ready.
			if w.ioctx != nil {
				if n := w.ioctx.Poll(); n == 0 {
					t0 := time.Now()
					w.ioctx.WaitSignal()
					dt := int64(time.Since(t0))
					w.waitNS += dt
					atomic.AddInt64(&w.partWaitNS, dt)
				}
			}
			continue
		}

		// Running set empty: more queued vertices?
		w.mu.Lock()
		empty := w.qpos >= len(w.active)
		w.mu.Unlock()
		if !empty {
			continue
		}
		// Try to steal (§3.8.1).
		if !e.cfg.NoWorkStealing && w.steal(runOne) {
			continue
		}
		break
	}
}

// steal grabs work from the busiest sibling and runs it.
func (w *worker) steal(runOne func(graph.VertexID)) bool {
	e := w.eng
	for i := 1; i < e.cfg.Threads; i++ {
		victim := e.workers[(w.id+i)%e.cfg.Threads]
		if victim == w {
			continue
		}
		if stolen := w.stealFrom(victim); stolen != nil {
			atomic.AddInt64(&e.stats.steals, int64(len(stolen)))
			for _, v := range stolen {
				runOne(v)
			}
			w.issue()
			return true
		}
	}
	return false
}

// issue cuts pending edge-list requests into ReadTasks and flushes them
// to SAFS per Config.Merge (§3.6).
func (w *worker) issue() {
	if len(w.reqs) == 0 {
		return
	}
	reqs := w.reqs
	w.reqs = nil
	e := w.eng

	if e.cfg.InMemory {
		// In-memory mode: serve requests directly from the image's byte
		// slices. Requests appended during RunOnVertex extend the slice
		// being iterated.
		ctx := w.partCtx
		for i := 0; i < len(reqs); i++ {
			r := reqs[i]
			pv := graph.NewPageVertexBytes(r.target, r.dir, e.data(r.dir)[r.off:r.off+r.size], e.img.AttrSize, e.img.Encoding)
			ctx.cur = r.requester
			e.alg.RunOnVertex(ctx, r.requester, &pv)
			w.vertexRequestDone(r.requester)
			if len(w.reqs) > 0 {
				reqs = append(reqs, w.reqs...)
				w.reqs = w.reqs[:0]
			}
		}
		w.reqs = w.reqs[:0]
		return
	}

	// FG and None flush after every ReadTask, so SAFS sees one request at
	// a time and merges nothing across them; SAFS mode stages the whole
	// batch and flushes once.
	flushEach := e.cfg.Merge != MergeSAFS
	if e.cfg.Merge == MergeFG {
		// Globally sort this batch's requests by (direction, offset)
		// and merge runs touching the same or adjacent pages.
		sort.Slice(reqs, func(i, j int) bool {
			if reqs[i].dir != reqs[j].dir {
				return reqs[i].dir < reqs[j].dir
			}
			return reqs[i].off < reqs[j].off
		})
	}
	ps := int64(e.cfg.FS.PageSize())
	for i := 0; i < len(reqs); {
		j := i + 1
		end := reqs[i].off + reqs[i].size
		for e.cfg.Merge == MergeFG && j < len(reqs) && reqs[j].dir == reqs[i].dir {
			// Merge iff the next request starts on the same or the
			// adjacent page of the current run's end.
			endPage := (end - 1) / ps
			nextPage := reqs[j].off / ps
			if nextPage > endPage+1 {
				break
			}
			if e2 := reqs[j].off + reqs[j].size; e2 > end {
				end = e2
			}
			j++
		}
		w.issueMerged(reqs[i:j], end)
		if flushEach {
			w.ioctx.Flush()
		}
		i = j
	}
	w.ioctx.Flush()
}

// issueMerged dispatches one merged request covering group (all same
// dir) ending at byte offset end.
func (w *worker) issueMerged(group []edgeReq, end int64) {
	e := w.eng
	atomic.AddInt64(&e.stats.mergedRequests, 1)
	start := group[0].off
	f := e.file(group[0].dir)
	// The group slice aliases the issue batch; copy so later batches
	// cannot clobber it while the task is in flight.
	items := make([]edgeReq, len(group))
	copy(items, group)
	w.ioctx.ReadTask(f, start, end-start, func(view *safs.View, err error) {
		if err != nil {
			// Device errors are fatal to the run; surface loudly — as an
			// error value, so the failure's type (corruption vs transient
			// exhaustion) survives recordPanic into the run's result.
			panic(fmt.Errorf("core: edge-list read failed: %w", err))
		}
		ctx := w.partCtx
		var scratch []byte
		for _, it := range items {
			// View.Slice hands back the cache frame directly unless the
			// record crosses a page boundary, so nearly every vertex
			// decodes in place. scratch is grown here (not by Slice) so
			// boundary-crossing copies reuse one buffer across the
			// task's vertices.
			if int64(cap(scratch)) < it.size {
				scratch = make([]byte, it.size)
			}
			rec := view.Slice(it.off-start, it.size, scratch)
			pv := graph.NewPageVertexBytes(it.target, it.dir, rec, e.img.AttrSize, e.img.Encoding)
			ctx.cur = it.requester
			e.alg.RunOnVertex(ctx, it.requester, &pv)
			w.vertexRequestDone(it.requester)
		}
	})
}

// vertexRequestDone decrements the requester's outstanding-request count
// and retires it from the running state at zero.
func (w *worker) vertexRequestDone(v graph.VertexID) {
	w.pendingReqs[v]--
	if w.pendingReqs[v] == 0 {
		w.running--
	}
}

// send buffers a point-to-point message, flushing the destination
// buffer at the bundling threshold (§3.4.1).
func (w *worker) send(to graph.VertexID, msg Message) {
	p := w.eng.partitionOf(to)
	w.outbox[p] = append(w.outbox[p], envelope{msg: msg, to: to})
	w.outCnt++
	atomic.AddInt64(&w.eng.stats.messages, 1)
	if len(w.outbox[p]) >= msgFlushThreshold {
		w.flushTo(p)
	}
}

// multicast copies msg once per destination partition.
func (w *worker) multicast(targets []graph.VertexID, msg Message) {
	e := w.eng
	byPart := make(map[int][]graph.VertexID, 4)
	for _, t := range targets {
		p := e.partitionOf(t)
		byPart[p] = append(byPart[p], t)
	}
	for p, ts := range byPart {
		w.outbox[p] = append(w.outbox[p], envelope{msg: msg, targets: ts})
		w.outCnt++
		atomic.AddInt64(&e.stats.messages, int64(len(ts)))
		if len(w.outbox[p]) >= msgFlushThreshold {
			w.flushTo(p)
		}
	}
}

// flushTo moves one destination buffer into the target's inbox.
func (w *worker) flushTo(p int) {
	buf := w.outbox[p]
	if len(buf) == 0 {
		return
	}
	w.outbox[p] = nil
	dst := w.eng.workers[p]
	dst.inboxMu.Lock()
	dst.inbox = append(dst.inbox, buf...)
	dst.inboxMu.Unlock()
}

// flushAll drains every outbox buffer and returns how many envelopes it
// moved. The count matters for quiescence: an envelope flushed into a
// peer's inbox after the peer took its batch must keep the message
// rounds alive, or it would be silently lost.
func (w *worker) flushAll() int64 {
	var flushed int64
	for p := range w.outbox {
		flushed += int64(len(w.outbox[p]))
		w.flushTo(p)
	}
	w.outCnt = 0
	return flushed
}

// messagePhase flushes outboxes and delivers this partition's inbox,
// executing RunOnMessage on the owner thread (messages are how vertices
// touch each other's state without locks — §3.4.1). Returns the number
// of envelopes flushed plus delivered plus newly sent, so the engine can
// iterate the rounds to true quiescence.
func (w *worker) messagePhase() int64 {
	busyStart := time.Now()
	defer func() { w.busyNS += int64(time.Since(busyStart)) }()
	flushed := w.flushAll()
	w.inboxMu.Lock()
	batch := w.inbox
	w.inbox = nil
	w.inboxMu.Unlock()
	if len(batch) == 0 {
		return flushed + int64(w.outCnt)
	}
	ctx := w.partCtx
	ctx.inMsgs = true
	defer func() { ctx.inMsgs = false }()
	var delivered int64
	for _, env := range batch {
		if env.targets == nil {
			ctx.cur = env.to
			w.eng.alg.RunOnMessage(ctx, env.to, env.msg)
			delivered++
			continue
		}
		for _, t := range env.targets {
			ctx.cur = t
			w.eng.alg.RunOnMessage(ctx, t, env.msg)
			delivered++
		}
	}
	return flushed + delivered + int64(w.outCnt)
}

// iterEndPhase delivers end-of-iteration notifications requested via
// Ctx.NotifyIterationEnd.
func (w *worker) iterEndPhase() {
	ie, ok := w.eng.alg.(IterationEnder)
	if !ok {
		return
	}
	batch := w.iterEnd
	w.iterEnd = nil
	ctx := w.partCtx
	for _, v := range batch {
		ctx.cur = v
		ie.RunOnIterationEnd(ctx, v)
	}
	w.flushAll()
}
