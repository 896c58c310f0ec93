package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/util"
)

const (
	// chunkHdrs and chunkTargets size a message chunk (§3.4.1 bundling):
	// 512 headers and 4090 targets come to 32,752 bytes, inside the
	// allocator's largest small size class. One byte more and every
	// chunk turnover would zero a large object.
	chunkHdrs    = 512
	chunkTargets = 4090
	// taskKeep bounds a worker's idle readTask list and scratchKeep the
	// page-crossing scratch it retains; more tasks than that in one
	// completion burst, or a larger record, are allocated and dropped.
	taskKeep    = 256
	scratchKeep = 64 << 10
	// popBlock is how many vertices the owner claims from the head of its
	// queue per lock acquisition. Claimed vertices are out of a thief's
	// reach, so the block also bounds the work a worker can be left
	// holding alone at the end of a part.
	popBlock = 64
	// randomSeed seeds the per-worker SchedRandom shuffles.
	randomSeed uint64 = 1
)

// edgeReq is one vertex's request for one edge list, located via the
// in-memory index at request time. Requests live in the worker's slab
// from RequestEdges until the list has been delivered; next links the
// requests of one merged read (and the slab's free slots).
type edgeReq struct {
	requester graph.VertexID
	target    graph.VertexID
	off, size int64
	dir       graph.EdgeDir
	next      int32
}

// readTask is one merged read in flight: the chain of slab requests
// starting at head, covered by one SAFS ReadTask that begins at byte
// start of the direction's file. Tasks are pooled per worker and their
// TaskFunc is bound once, so issuing a read allocates nothing.
type readTask struct {
	w     *worker
	head  int32
	start int64
	fn    safs.TaskFunc
}

// msgHeader is one Send (n = 1) or one partition's share of a Multicast:
// msg goes to the next n entries of the chunk's target array.
type msgHeader struct {
	msg Message
	n   int32
}

// msgChunk is the unit of message hand-over: a flat, pointer-free buffer
// of headers and the targets behind them, filled by one sender for one
// destination partition and passed to the owner by pointer.
type msgChunk struct {
	nh, nt  int32
	hdrs    [chunkHdrs]msgHeader
	targets [chunkTargets]graph.VertexID
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
	// pops from its tail under mu while the owner claims blocks from the
	// head. block is the owner's claimed, not yet run part of active —
	// elements no one else reads or writes until the next resetQueue.
	iterActive []graph.VertexID
	mu         sync.Mutex
	active     []graph.VertexID
	qpos       int
	block      []graph.VertexID

	running int // vertices in the running state

	// Edge requests. Everything here is bounded by the running set
	// (MaxRunning), never by the iteration's volume.
	slab    []edgeReq // requests not yet delivered
	freeReq int32     // head of the slab's free-slot chain, -1 if none
	batch   []int32   // slab slots requested since the last issue
	tasks   []*readTask
	pv      graph.PageVertex // the edge list handed to RunOnVertex
	scratch []byte           // copy of a record that crosses a page boundary
	stolen  []graph.VertexID

	// Messages. out[p] is the chunk this worker is filling for partition
	// p; mcOpen[p] == mcGen while the running Multicast call has a header
	// open in it. Full chunks go to the owner's inbox; a delivered chunk
	// is dropped unless the spare list (at most Threads) has room.
	out     []*msgChunk
	mcOpen  []uint64
	mcGen   uint64
	spare   []*msgChunk
	inboxMu sync.Mutex
	inbox   []*msgChunk
	drained []*msgChunk // the inbox slice being delivered, swapped back

	// Per-run counts, folded into the engine's at the end of the run.
	sent, edgeReqs, merged, steals int64
	// sums holds a SumReceiver run's sends from this worker, NumV long (nil otherwise).
	sums []int64

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
		out:    make([]*msgChunk, e.cfg.Threads),
		mcOpen: make([]uint64, e.cfg.Threads),
		spare:  make([]*msgChunk, 0, e.cfg.Threads),
		rng:    util.NewRNG(randomSeed + uint64(id)*7919),
	}
	if !e.cfg.InMemory {
		w.ioctx = e.cfg.FS.NewContext()
	}
	return w
}

func (w *worker) start() {
	// A previous run may have ended with undelivered iteration-end
	// messages or, aborted, with requests in flight.
	clear(w.out)
	clear(w.inbox)
	w.inbox = w.inbox[:0]
	w.slab, w.freeReq, w.batch = w.slab[:0], -1, w.batch[:0]
	w.sent, w.edgeReqs, w.merged, w.steals = 0, 0, 0, 0
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

// commit folds this worker's counters into the engine run stats (called
// via a phase, so it runs on the worker goroutine).
func (w *worker) commit() {
	st := &w.eng.stats
	atomic.AddInt64(&st.waitNS, w.waitNS)
	atomic.AddInt64(&st.computeNS, w.busyNS)
	atomic.AddInt64(&st.messages, w.sent)
	atomic.AddInt64(&st.edgeRequests, w.edgeReqs)
	atomic.AddInt64(&st.mergedRequests, w.merged)
	atomic.AddInt64(&st.steals, w.steals)
	w.waitNS, w.busyNS = 0, 0
}

// buildActiveList collects this worker's active vertices in schedule
// order (§3.7): the program's own order when it has one, else vertex-ID
// order (alternating direction); SchedRandom shuffles either way.
func (w *worker) buildActiveList() {
	e := w.eng
	w.iterActive = w.iterActive[:0]
	for _, s := range e.shared.part.spans[w.id] {
		w.iterActive = e.activeCur.AppendSet(w.iterActive, s[0], s[1])
	}
	if e.cfg.Sched == SchedRandom {
		for i := len(w.iterActive) - 1; i > 0; i-- {
			j := w.rng.Intn(i + 1)
			w.iterActive[i], w.iterActive[j] = w.iterActive[j], w.iterActive[i]
		}
	} else if cs, ok := e.alg.(CustomScheduler); ok {
		cs.Order(e, w.iterActive)
	} else if e.iteration%2 == 1 {
		slices.Reverse(w.iterActive) // odd iterations sweep descending
	}
}

// resetQueue loads the pristine iteration list into the work queue at
// the start of a vertical part.
func (w *worker) resetQueue() {
	w.mu.Lock()
	w.active = append(w.active[:0], w.iterActive...)
	w.qpos = 0
	w.block = nil // an aborted part may have left some claimed
	w.mu.Unlock()
}

// pop takes the next active vertex (owner side), claiming up to popBlock
// of them from the head of the queue each time it has to take the lock.
func (w *worker) pop() (graph.VertexID, bool) {
	if len(w.block) == 0 {
		w.mu.Lock()
		k := min(popBlock, len(w.active)-w.qpos)
		w.block = w.active[w.qpos : w.qpos+k]
		w.qpos += k
		w.mu.Unlock()
		if k == 0 {
			return 0, false
		}
	}
	v := w.block[0]
	w.block = w.block[1:]
	return v, true
}

// stealFrom takes a chunk from the tail of another worker's queue into
// this worker's stolen scratch.
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
	tail := len(victim.active) - k
	w.stolen = append(w.stolen[:0], victim.active[tail:]...)
	victim.active = victim.active[:tail]
	return w.stolen
}

// runPart executes vertical partition `part` of all active vertices in
// this worker's queue, overlapping vertex execution with I/O: it keeps
// up to maxRunning vertices in the running state, merges and issues
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
		before := len(w.batch)
		e.alg.Run(ctx, v)
		if len(w.batch) > before || e.pendingReqs[v] > 0 {
			w.running++
		}
	}

	for e.abortErr() == nil {
		// Fill the running set from the queue.
		drained := false
		for w.running < e.maxRunning {
			v, ok := w.pop()
			if !ok {
				drained = true
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

		// Running set empty (in memory, issue delivers at once): more
		// queued vertices?
		if !drained {
			continue
		}
		// Try to steal (§3.8.1).
		if w.steal(runOne) {
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
			w.steals += int64(len(stolen))
			for _, v := range stolen {
				runOne(v)
			}
			w.issue()
			return true
		}
	}
	return false
}

// request records one edge-list request in the slab.
func (w *worker) request(r edgeReq) {
	slot := w.freeReq
	if slot >= 0 {
		w.freeReq = w.slab[slot].next
		w.slab[slot] = r
	} else {
		slot = int32(len(w.slab))
		w.slab = append(w.slab, r)
	}
	w.batch = append(w.batch, slot)
}

// take removes the request in slot from the slab.
func (w *worker) take(slot int32) edgeReq {
	r := w.slab[slot]
	w.slab[slot].next = w.freeReq
	w.freeReq = slot
	return r
}

// deliver runs RunOnVertex for one arrived edge list and retires the
// request. The PageVertex is the worker's own: callbacks may not keep it.
func (w *worker) deliver(r edgeReq, rec []byte) {
	e := w.eng
	w.pv = graph.NewPageVertexBytes(r.target, r.dir, rec, e.img.AttrSize, e.img.Encoding)
	w.partCtx.cur = r.requester
	e.alg.RunOnVertex(w.partCtx, r.requester, &w.pv)
	e.pendingReqs[r.requester]--
	if e.pendingReqs[r.requester] == 0 {
		w.running--
	}
}

// compareReqs orders two slab slots by (direction, offset).
func (w *worker) compareReqs(a, b int32) int {
	x, y := &w.slab[a], &w.slab[b]
	return cmp.Or(cmp.Compare(x.dir, y.dir), cmp.Compare(x.off, y.off))
}

// issue cuts the batch of pending edge-list requests into ReadTasks and
// flushes them to SAFS per Config.Merge (§3.6).
func (w *worker) issue() {
	if len(w.batch) == 0 {
		return
	}
	e := w.eng

	if e.cfg.InMemory {
		// In-memory mode: serve requests directly from the image's byte
		// slices. Requests made during RunOnVertex extend the batch
		// being iterated.
		for i := 0; i < len(w.batch); i++ {
			r := w.take(w.batch[i])
			w.deliver(r, e.data(r.dir)[r.off:r.off+r.size])
		}
		w.batch = w.batch[:0]
		return
	}

	// FG and None flush after every ReadTask, so SAFS sees one request at
	// a time and merges nothing across them; SAFS mode stages the whole
	// batch and flushes once.
	flushEach := e.cfg.Merge != MergeSAFS
	if e.cfg.Merge == MergeFG {
		// Globally sort this batch's requests by (direction, offset)
		// and merge runs touching the same or adjacent pages. SchedByID's
		// alternating sweep requests in ascending or exactly descending
		// file order, which pdqsort settles in one linear pass.
		slices.SortFunc(w.batch, w.compareReqs)
	}
	ps := int64(e.cfg.FS.PageSize())
	for i := 0; i < len(w.batch); {
		first := w.slab[w.batch[i]]
		end := first.off + first.size
		j := i + 1
		for ; e.cfg.Merge == MergeFG && j < len(w.batch); j++ {
			// Merge iff the next request starts on the same or the
			// adjacent page of the current run's end.
			next := &w.slab[w.batch[j]]
			if next.dir != first.dir || next.off/ps > (end-1)/ps+1 {
				break
			}
			end = max(end, next.off+next.size)
			w.slab[w.batch[j-1]].next = w.batch[j]
		}
		w.slab[w.batch[j-1]].next = -1
		w.read(w.batch[i], first, end)
		if flushEach {
			w.ioctx.Flush()
		}
		i = j
	}
	w.batch = w.batch[:0]
	w.ioctx.Flush()
}

// read dispatches one merged read for the request chain starting at
// slot head (whose request is first), ending at byte offset end.
func (w *worker) read(head int32, first edgeReq, end int64) {
	w.merged++
	var t *readTask
	if n := len(w.tasks); n > 0 {
		t, w.tasks = w.tasks[n-1], w.tasks[:n-1]
	} else {
		t = &readTask{w: w}
		t.fn = t.run
	}
	t.head, t.start = head, first.off
	w.ioctx.ReadTask(w.eng.file(first.dir), first.off, end-first.off, t.fn)
}

// run delivers the edge lists of one completed merged read.
func (t *readTask) run(view *safs.View, err error) {
	w, slot, start := t.w, t.head, t.start
	if len(w.tasks) < taskKeep {
		w.tasks = append(w.tasks, t)
	}
	if err != nil {
		// Device errors are fatal to the run; surface loudly — as an
		// error value, so the failure's type (corruption vs transient
		// exhaustion) survives recordPanic into the run's result.
		panic(fmt.Errorf("core: edge-list read failed: %w", err))
	}
	for slot >= 0 {
		r := w.take(slot)
		slot = r.next
		// View.Slice hands back the cache frame directly unless the
		// record crosses a page boundary, so nearly every vertex decodes
		// in place; a crossing record is copied into scratch (or, past
		// scratchKeep, into a buffer Slice allocates for this one call).
		if int64(cap(w.scratch)) < r.size && r.size <= scratchKeep {
			w.scratch = make([]byte, r.size)
		}
		w.deliver(r, view.Slice(r.off-start, r.size, w.scratch))
	}
}

// openChunk hands partition p's open chunk over, if it holds anything,
// and opens an empty one.
func (w *worker) openChunk(p int) *msgChunk {
	w.flushTo(p)
	c := w.out[p]
	if c == nil {
		if n := len(w.spare); n > 0 {
			c, w.spare = w.spare[n-1], w.spare[:n-1]
			c.nh, c.nt = 0, 0
		} else {
			c = new(msgChunk)
		}
		w.out[p] = c
	}
	return c
}

// multicast copies msg once per destination partition: it walks targets
// once, opening at most one header in each partition's chunk and
// appending that partition's targets behind it. A chunk that fills on
// the way is handed over and the header re-opened in the next one. A
// Send is a multicast to one target: one header with n = 1. A
// SumReceiver's multicast only adds msg.I64 into each target's sum in
// this worker's own array.
func (w *worker) multicast(targets []graph.VertexID, msg Message) {
	w.sent += int64(len(targets))
	if sums := w.sums; sums != nil {
		for _, t := range targets {
			sums[t] += msg.I64
		}
		return
	}
	part := &w.eng.shared.part
	w.mcGen++
	// Neighbour lists are ID-sorted, so targets arrive in runs of one
	// granule: the owner is looked up only when the granule changes.
	granule, p := graph.VertexID(0), part.of(0)
	for _, t := range targets {
		if g := t >> part.shift; g != granule {
			granule, p = g, part.of(t)
		}
		c := w.out[p]
		if w.mcOpen[p] != w.mcGen || c.nt == chunkTargets {
			if c == nil || c.nh == chunkHdrs || c.nt == chunkTargets {
				c = w.openChunk(p)
			}
			c.hdrs[c.nh] = msgHeader{msg: msg}
			c.nh++
			w.mcOpen[p] = w.mcGen
		}
		c.hdrs[c.nh-1].n++
		c.targets[c.nt] = t
		c.nt++
	}
}

// flushTo hands partition p's open chunk to its owner's inbox by pointer
// — one lock per chunk, no copy — and returns how many messages it held.
func (w *worker) flushTo(p int) int64 {
	c := w.out[p]
	if c == nil || c.nt == 0 {
		return 0
	}
	w.out[p] = nil
	n := int64(c.nt) // the owner may be reusing c once it is in its inbox
	dst := w.eng.workers[p]
	dst.inboxMu.Lock()
	dst.inbox = append(dst.inbox, c)
	dst.inboxMu.Unlock()
	return n
}

// flushAll hands every non-empty open chunk over and returns how many
// messages it moved. The count matters for quiescence: a chunk flushed
// into a peer's inbox after the peer took its batch must keep the
// message rounds alive, or it would be silently lost.
func (w *worker) flushAll() int64 {
	var flushed int64
	for p := range w.out {
		flushed += w.flushTo(p)
	}
	return flushed
}

// messagePhase flushes open chunks and delivers this partition's inbox,
// executing RunOnMessage on the owner thread (messages are how vertices
// touch each other's state without locks — §3.4.1); a SumReceiver gets
// one RunOnSums per owned range instead. Returns the number of messages
// flushed plus delivered, so the engine can iterate the rounds to true
// quiescence: what a delivery sends stays buffered until the next round
// — which that delivery's count guarantees — flushes it. RunOnSums
// cannot send, so its phase counts nothing and ends the rounds.
func (w *worker) messagePhase() int64 {
	busyStart := time.Now()
	defer func() { w.busyNS += int64(time.Since(busyStart)) }()
	ctx, alg := w.partCtx, w.eng.alg
	ctx.inMsgs = true
	defer func() { ctx.inMsgs = false }()
	if w.sums != nil {
		// Spans are disjoint and the barrier orders the fold after every
		// add, so no lock: fold the others into this array, zero them.
		for _, s := range w.eng.shared.part.spans[w.id] {
			own := w.sums[s[0]:s[1]]
			for _, o := range w.eng.workers {
				if o != w {
					for i, x := range o.sums[s[0]:s[1]] {
						own[i] += x
					}
					clear(o.sums[s[0]:s[1]])
				}
			}
			alg.(SumReceiver).RunOnSums(ctx, graph.VertexID(s[0]), own)
			clear(own)
		}
		return 0
	}
	flushed := w.flushAll()
	w.inboxMu.Lock()
	batch := w.inbox
	w.inbox = w.drained[:0]
	w.inboxMu.Unlock()
	var delivered int64
	for i, c := range batch {
		t := int32(0)
		for h := range c.hdrs[:c.nh] {
			hd := &c.hdrs[h]
			targets := c.targets[t : t+hd.n]
			t += hd.n
			for _, to := range targets {
				ctx.cur = to
				alg.RunOnMessage(ctx, to, hd.msg)
			}
		}
		delivered += int64(c.nt)
		// Chunks are dropped once delivered — an iteration buffers far
		// more of them than may stay live — except the few a worker needs
		// to start sending again without allocating.
		if len(w.spare) < cap(w.spare) {
			w.spare = append(w.spare, c)
		}
		batch[i] = nil
	}
	w.drained = batch
	return flushed + delivered
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
