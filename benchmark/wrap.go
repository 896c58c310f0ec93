package main

import (
	"math/bits"
	"sync/atomic"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/ssd"
)

// timingStore forwards every ssd.Store call to the real store and, while
// on, counts and times reads. It sits under every device for the whole
// invocation (the array is built once); off, it costs one atomic load
// per device request. It keeps the vectored path: ReadVecAt forwards to
// the inner store's preadv.
type timingStore struct {
	inner ssd.Store
	vec   ssd.VecReader
	on    *atomic.Bool

	reads  atomic.Int64
	readNS atomic.Int64
}

func newTimingStore(inner ssd.Store, on *atomic.Bool) *timingStore {
	vec, _ := inner.(ssd.VecReader)
	return &timingStore{inner: inner, vec: vec, on: on}
}

func (s *timingStore) ReadAt(p []byte, off int64) (int, error) {
	if !s.on.Load() {
		return s.inner.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := s.inner.ReadAt(p, off)
	s.readNS.Add(int64(time.Since(t0)))
	s.reads.Add(1)
	return n, err
}

// ReadVecAt implements ssd.VecReader. A store without a vectored path
// gets the same per-buffer loop the device would run.
func (s *timingStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	var t0 time.Time
	on := s.on.Load()
	if on {
		t0 = time.Now()
	}
	var n int
	var err error
	if s.vec != nil {
		n, err = s.vec.ReadVecAt(vec, off)
	} else {
		for _, b := range vec {
			var m int
			m, err = s.inner.ReadAt(b, off+int64(n))
			n += m
			if err != nil {
				break
			}
		}
	}
	if on {
		s.readNS.Add(int64(time.Since(t0)))
		s.reads.Add(1)
	}
	return n, err
}

func (s *timingStore) WriteAt(p []byte, off int64) (int, error) { return s.inner.WriteAt(p, off) }
func (s *timingStore) Size() int64                              { return s.inner.Size() }

func (s *timingStore) Close() error {
	if c, ok := s.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// workerCounters is one engine worker's callback tally. Workers index
// the slice by ctx.WorkerID(), so no atomics are needed; the padding
// keeps two workers off one cache line.
type workerCounters struct {
	runCalls, vertexCalls, messageCalls int64
	edgesDecoded                        int64
	vertexNS                            int64 // every RunOnVertex call timed
	runNS                               int64 // 1 call in sampleEvery timed

	// RunOnMessage is a few nanoseconds of work, less than one clock
	// read's uncertainty, so it is timed in bursts: every sampleEvery-th
	// call opens an interval that closes messageBurst calls later, and
	// only the interval is timed. The engine delivers a batch's messages
	// in one tight loop, so the interval holds the callbacks plus that
	// loop's dispatch; a burst is dropped if any other callback ran on
	// the worker before it closed (the loop was left).
	messageNS, messageTimed int64
	burstLeft               int
	burstStart              time.Time
	_                       [64]byte
}

const messageBurst = 16

// algoTotals sums callback counters across workers, with sampled times
// scaled back up.
type algoTotals struct {
	runCalls, vertexCalls, messageCalls, applyRowCalls int64
	edgesDecoded                                       int64
	run, vertex, message, applyRow                     time.Duration
}

func (a *algoTotals) add(b algoTotals) {
	a.runCalls += b.runCalls
	a.vertexCalls += b.vertexCalls
	a.messageCalls += b.messageCalls
	a.applyRowCalls += b.applyRowCalls
	a.edgesDecoded += b.edgesDecoded
	a.run += b.run
	a.vertex += b.vertex
	a.message += b.message
	a.applyRow += b.applyRow
}

func (a *algoTotals) sub(b algoTotals) {
	a.runCalls -= b.runCalls
	a.vertexCalls -= b.vertexCalls
	a.messageCalls -= b.messageCalls
	a.applyRowCalls -= b.applyRowCalls
	a.edgesDecoded -= b.edgesDecoded
	a.run -= b.run
	a.vertex -= b.vertex
	a.message -= b.message
	a.applyRow -= b.applyRow
}

func (a algoTotals) time() time.Duration { return a.run + a.vertex + a.message + a.applyRow }

// clockCost is the cost of one time.Now/time.Since pair, subtracted from
// every timed callback so short callbacks are not charged for the clock.
var clockCost = func() time.Duration {
	const n = 20000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return time.Since(t0) / n
}()

// sampleStart starts the timing of one sampled callback. The discarded
// first read pulls the clock's code and data into cache: a callback of a
// few nanoseconds is otherwise charged for the clock's cold misses, and
// scaling by sampleEvery turns that into seconds.
func sampleStart() time.Time {
	_ = time.Now()
	return time.Now()
}

func sinceLessClock(t0 time.Time) int64 {
	d := time.Since(t0) - clockCost
	if d < 0 {
		d = 0
	}
	return int64(d)
}

// iterObserver is told about every iteration end of a wrapped run.
type iterObserver func(iter int)

// tracedAlg forwards a core.Algorithm, counting every callback per
// worker and timing them (RunOnVertex always, Run one call in
// sampleEvery, RunOnMessage in bursts). It always offers IterationLimiter,
// IterationHook, StateSized and ResultProducer, forwarding to the inner
// program or answering as a program without them would; wrapAlgorithm
// adds IterationEnder, CustomScheduler and VerticallyPartitioned only
// when the inner program has them, because their mere presence changes
// what the engine does.
type tracedAlg struct {
	inner  core.Algorithm
	w      []workerCounters
	onIter iterObserver
	iter   int

	started     time.Time     // when the engine called Init
	resultTime  time.Duration // inside the inner Result()
	resultBytes int64
}

func (t *tracedAlg) Init(eng core.ExecutionEngine) {
	t.w = make([]workerCounters, eng.Threads())
	t.iter = 0
	t.started = time.Now()
	t.inner.Init(eng)
}

func (t *tracedAlg) Run(ctx *core.Ctx, v graph.VertexID) {
	c := &t.w[ctx.WorkerID()]
	c.burstLeft = 0
	c.runCalls++
	if c.runCalls%sampleEvery != 0 {
		t.inner.Run(ctx, v)
		return
	}
	t0 := sampleStart()
	t.inner.Run(ctx, v)
	c.runNS += sinceLessClock(t0)
}

func (t *tracedAlg) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	c := &t.w[ctx.WorkerID()]
	c.burstLeft = 0
	c.vertexCalls++
	c.edgesDecoded += int64(pv.NumEdges())
	t0 := time.Now()
	t.inner.RunOnVertex(ctx, v, pv)
	c.vertexNS += sinceLessClock(t0)
}

func (t *tracedAlg) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	c := &t.w[ctx.WorkerID()]
	c.messageCalls++
	if c.burstLeft == 0 {
		if c.messageCalls%sampleEvery != 0 {
			t.inner.RunOnMessage(ctx, v, msg)
			return
		}
		c.burstLeft = messageBurst
		c.burstStart = sampleStart()
	}
	t.inner.RunOnMessage(ctx, v, msg)
	if c.burstLeft--; c.burstLeft == 0 {
		c.messageNS += sinceLessClock(c.burstStart)
		c.messageTimed += messageBurst
	}
}

// MaxIterations implements core.IterationLimiter (0 = no cap of its own).
func (t *tracedAlg) MaxIterations() int {
	if l, ok := t.inner.(core.IterationLimiter); ok {
		return l.MaxIterations()
	}
	return 0
}

// OnIterationEnd implements core.IterationHook: the inner hook first, so
// the observer sees the iteration as the engine will.
func (t *tracedAlg) OnIterationEnd(eng *core.Engine) {
	if h, ok := t.inner.(core.IterationHook); ok {
		h.OnIterationEnd(eng)
	}
	if t.onIter != nil {
		t.onIter(t.iter)
	}
	t.iter++
}

// StateBytes implements core.StateSized.
func (t *tracedAlg) StateBytes() int64 {
	if s, ok := t.inner.(core.StateSized); ok {
		return s.StateBytes()
	}
	return 0
}

// Result implements core.ResultProducer; nil when the inner program
// produces none, which result.From treats as "not a producer".
func (t *tracedAlg) Result() *result.ResultSet {
	p, ok := t.inner.(core.ResultProducer)
	if !ok {
		return nil
	}
	t0 := time.Now()
	rs := p.Result()
	t.resultTime += time.Since(t0)
	if rs != nil {
		t.resultBytes += rs.MemoryBytes()
	}
	return rs
}

// totals folds the per-worker tallies; call after the run returned.
func (t *tracedAlg) totals() algoTotals {
	var a algoTotals
	for i := range t.w {
		c := &t.w[i]
		a.runCalls += c.runCalls
		a.vertexCalls += c.vertexCalls
		a.messageCalls += c.messageCalls
		a.edgesDecoded += c.edgesDecoded
		a.vertex += time.Duration(c.vertexNS)
		a.run += time.Duration(c.runNS * sampleEvery)
		if c.messageTimed > 0 {
			// messageNS × messageCalls / messageTimed, through 128 bits.
			hi, lo := bits.Mul64(uint64(c.messageNS), uint64(c.messageCalls))
			scaled, _ := bits.Div64(hi, lo, uint64(c.messageTimed))
			a.message += time.Duration(scaled)
		}
	}
	return a
}

// wrapAlgorithm returns the traced form of inner plus the handle that
// holds its counters.
func wrapAlgorithm(inner core.Algorithm, onIter iterObserver) (core.Algorithm, *tracedAlg) {
	t := &tracedAlg{inner: inner, onIter: onIter}
	e, isE := inner.(core.IterationEnder)
	s, isS := inner.(core.CustomScheduler)
	p, isP := inner.(core.VerticallyPartitioned)
	switch {
	case isE && isS && isP:
		return struct {
			*tracedAlg
			core.IterationEnder
			core.CustomScheduler
			core.VerticallyPartitioned
		}{t, e, s, p}, t
	case isE && isS:
		return struct {
			*tracedAlg
			core.IterationEnder
			core.CustomScheduler
		}{t, e, s}, t
	case isE && isP:
		return struct {
			*tracedAlg
			core.IterationEnder
			core.VerticallyPartitioned
		}{t, e, p}, t
	case isS && isP:
		return struct {
			*tracedAlg
			core.CustomScheduler
			core.VerticallyPartitioned
		}{t, s, p}, t
	case isE:
		return struct {
			*tracedAlg
			core.IterationEnder
		}{t, e}, t
	case isS:
		return struct {
			*tracedAlg
			core.CustomScheduler
		}{t, s}, t
	case isP:
		return struct {
			*tracedAlg
			core.VerticallyPartitioned
		}{t, p}, t
	}
	return t, t
}

// tracedSpMV forwards a core.SpMVProgram. The SpMV engine applies rows
// on one goroutine, so plain fields suffice. Of the optional interfaces
// the SpMV engine consults only IterationLimiter and StateSized; those
// and ResultProducer are forwarded.
type tracedSpMV struct {
	inner  core.SpMVProgram
	onIter iterObserver

	applyCalls   int64
	edgesDecoded int64
	applyNS      int64 // 1 call in sampleEvery timed
}

func (t *tracedSpMV) Init(eng core.ExecutionEngine) { t.inner.Init(eng) }

func (t *tracedSpMV) BeginIteration(eng core.ExecutionEngine, iter int) []graph.EdgeDir {
	return t.inner.BeginIteration(eng, iter)
}

func (t *tracedSpMV) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	t.applyCalls++
	t.edgesDecoded += int64(len(cols))
	if t.applyCalls%sampleEvery != 0 {
		t.inner.ApplyRow(dir, row, cols)
		return
	}
	t0 := sampleStart()
	t.inner.ApplyRow(dir, row, cols)
	t.applyNS += sinceLessClock(t0)
}

func (t *tracedSpMV) EndIteration(eng core.ExecutionEngine, iter int) bool {
	done := t.inner.EndIteration(eng, iter)
	if t.onIter != nil {
		t.onIter(iter)
	}
	return done
}

func (t *tracedSpMV) MaxIterations() int {
	if l, ok := t.inner.(core.IterationLimiter); ok {
		return l.MaxIterations()
	}
	return 0
}

func (t *tracedSpMV) StateBytes() int64 {
	if s, ok := t.inner.(core.StateSized); ok {
		return s.StateBytes()
	}
	return 0
}

func (t *tracedSpMV) Result() *result.ResultSet {
	if p, ok := t.inner.(core.ResultProducer); ok {
		return p.Result()
	}
	return nil
}

func (t *tracedSpMV) totals() algoTotals {
	return algoTotals{
		applyRowCalls: t.applyCalls,
		edgesDecoded:  t.edgesDecoded,
		applyRow:      time.Duration(t.applyNS * sampleEvery),
	}
}
