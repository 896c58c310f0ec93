package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// Model-based exactly-once delivery: a seeded random vertex program is
// run on the engine and on a sequential oracle, and the two must agree,
// per iteration, on the multiset of delivered (to, from, kind, I64, F64).
// Every decision the program takes is a pure function of (seed,
// iteration, vertex, received message), so the engine's scheduling,
// stealing and delivery order cannot change what ought to arrive — only
// a lost, duplicated, misrouted or late message can.

// delivery is one RunOnMessage call.
type delivery struct {
	iter     int
	to, from graph.VertexID
	kind     uint8
	i64      int64
	f64      float64
}

func compareDelivery(a, b delivery) int {
	return cmp.Or(
		cmp.Compare(a.iter, b.iter), cmp.Compare(a.to, b.to), cmp.Compare(a.from, b.from),
		cmp.Compare(a.kind, b.kind), cmp.Compare(a.i64, b.i64), cmp.Compare(a.f64, b.f64))
}

// msgSink is what the program's decisions act on: *Ctx on the engine,
// *msgOracle in the model.
type msgSink interface {
	Send(to graph.VertexID, msg Message)
	Multicast(targets []graph.VertexID, msg Message)
	Activate(v graph.VertexID)
	ActivateMany(vs []graph.VertexID)
	NotifyIterationEnd()
	RequestSelf(dir graph.EdgeDir)
}

// msgRules is the seeded program, independent of who executes it.
type msgRules struct {
	seed uint64
	n    int
	// extra runs after the random actions of Run; boundary cases use it
	// to add one oversized send pattern. buf is the caller's scratch.
	extra func(s msgSink, it int, v graph.VertexID, buf *[]graph.VertexID)
}

func (r *msgRules) mix(vals ...uint64) uint64 {
	h := r.seed*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

func (r *msgRules) vertex(h uint64) graph.VertexID { return graph.VertexID(h % uint64(r.n)) }

// payload builds a message whose low two I64 bits are a hop budget: a
// receiver forwards while it is positive, which is what drives several
// rounds of one message phase.
func payload(kind uint8, h uint64, ttl int64) Message {
	return Message{Kind: kind, I64: int64(h>>40)<<2 | ttl, F64: float64(h >> 52)}
}

// targets fills *buf with k pseudo-random vertices (duplicates allowed).
func (r *msgRules) targets(buf *[]graph.VertexID, h uint64, k int) []graph.VertexID {
	ts := (*buf)[:0]
	for i := 0; i < k; i++ {
		ts = append(ts, r.vertex(r.mix(h, uint64(i))))
	}
	*buf = ts
	return ts
}

// scribble overwrites a target list after the call that took it:
// Multicast and ActivateMany must not keep the caller's slice.
func scribble(ts []graph.VertexID) {
	for i := range ts {
		ts[i] = 0
	}
}

func (r *msgRules) onRun(s msgSink, it int, v graph.VertexID, buf *[]graph.VertexID) {
	h := r.mix(uint64(it), uint64(v), 1)
	if h&3 == 0 {
		s.Send(r.vertex(h>>8), payload(1, h, int64(h>>4)&3))
	}
	if h&12 == 4 {
		ts := r.targets(buf, h, int(h>>16)%40)
		s.Multicast(ts, payload(2, h, int64(h>>6)&1))
		scribble(ts)
	}
	if h&48 == 16 {
		s.RequestSelf(graph.OutEdges)
	}
	// Activation thins out with the iteration so runs converge.
	if int(h>>20)%8 < 6-it {
		s.Activate(r.vertex(h >> 24))
	}
	if h&(7<<28) == 0 {
		s.NotifyIterationEnd()
	}
	if r.extra != nil {
		r.extra(s, it, v, buf)
	}
}

func (r *msgRules) onVertex(s msgSink, it int, v graph.VertexID, nbrs []graph.VertexID) {
	h := r.mix(uint64(it), uint64(v), 2)
	s.Multicast(nbrs, payload(3, h, int64(h)&1))
	if h&6 == 2 && it < 4 {
		s.ActivateMany(nbrs)
	}
	scribble(nbrs)
}

func (r *msgRules) onMessage(s msgSink, it int, v graph.VertexID, msg Message, buf *[]graph.VertexID) {
	ttl := msg.I64 & 3
	if ttl == 0 {
		return
	}
	h := r.mix(uint64(it), uint64(v), uint64(msg.From), uint64(msg.Kind), uint64(msg.I64), 3)
	if h&3 != 0 {
		s.Send(r.vertex(h>>8), payload(4, h, ttl-1))
	}
	if h&12 == 0 {
		ts := r.targets(buf, h, 3)
		s.Multicast(ts, payload(5, h, ttl-1))
		scribble(ts)
	}
	if h&(15<<4) == 0 && it < 4 {
		s.Activate(v)
	}
}

func (r *msgRules) onIterEnd(s msgSink, it int, v graph.VertexID, buf *[]graph.VertexID) {
	h := r.mix(uint64(it), uint64(v), 4)
	s.Send(r.vertex(h>>8), payload(6, h, int64(h>>4)&1))
	if h&1 == 0 {
		ts := r.targets(buf, h, 5)
		s.Multicast(ts, payload(7, h, 0))
		scribble(ts)
	}
	if h&6 == 0 && it < 3 {
		s.Activate(r.vertex(h >> 12))
	}
}

// msgProgram runs msgRules on the engine, logging deliveries per worker.
type msgProgram struct {
	rules   *msgRules
	seeds   []graph.VertexID
	maxIter int
	buf     [][]graph.VertexID // per-worker target scratch
	nbrs    [][]graph.VertexID
	got     [][]delivery
}

func (p *msgProgram) Init(eng ExecutionEngine) {
	t := eng.Threads()
	p.buf = make([][]graph.VertexID, t)
	p.nbrs = make([][]graph.VertexID, t)
	p.got = make([][]delivery, t)
	for _, v := range p.seeds {
		eng.ActivateSeed(v)
	}
}

// MaxIterations implements IterationLimiter: the model stops there too.
func (p *msgProgram) MaxIterations() int { return p.maxIter }

func (p *msgProgram) Run(ctx *Ctx, v graph.VertexID) {
	p.rules.onRun(ctx, ctx.Iteration(), v, &p.buf[ctx.WorkerID()])
}

func (p *msgProgram) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	w := ctx.WorkerID()
	p.nbrs[w] = pv.Edges(p.nbrs[w][:0], nil)
	p.rules.onVertex(ctx, ctx.Iteration(), v, p.nbrs[w])
}

func (p *msgProgram) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {
	w := ctx.WorkerID()
	p.got[w] = append(p.got[w], delivery{ctx.Iteration(), v, msg.From, msg.Kind, msg.I64, msg.F64})
	p.rules.onMessage(ctx, ctx.Iteration(), v, msg, &p.buf[w])
}

func (p *msgProgram) RunOnIterationEnd(ctx *Ctx, v graph.VertexID) {
	p.rules.onIterEnd(ctx, ctx.Iteration(), v, &p.buf[ctx.WorkerID()])
}

// addressed is a message on its way to one vertex.
type addressed struct {
	to  graph.VertexID
	msg Message
}

// msgOracle executes msgRules sequentially with the engine's BSP
// contract written out longhand: messages are delivered in the message
// phase of the iteration that sent them, in rounds until none is left;
// a message sent from RunOnIterationEnd is delivered in the NEXT
// iteration's message phase (and never, if the run ends first).
type msgOracle struct {
	rules *msgRules
	adj   *graph.Adjacency
	it    int
	cur   graph.VertexID
	buf   []graph.VertexID

	next    map[graph.VertexID]bool
	pending []addressed
	iterEnd []graph.VertexID
	sent    int64
	want    []delivery
}

func (o *msgOracle) Send(to graph.VertexID, msg Message) {
	msg.From = o.cur
	o.pending = append(o.pending, addressed{to, msg})
	o.sent++
}

func (o *msgOracle) Multicast(targets []graph.VertexID, msg Message) {
	for _, t := range targets {
		o.Send(t, msg)
	}
}

func (o *msgOracle) Activate(v graph.VertexID) { o.next[v] = true }

func (o *msgOracle) ActivateMany(vs []graph.VertexID) {
	for _, v := range vs {
		o.next[v] = true
	}
}

func (o *msgOracle) NotifyIterationEnd() { o.iterEnd = append(o.iterEnd, o.cur) }

func (o *msgOracle) RequestSelf(graph.EdgeDir) {
	o.rules.onVertex(o, o.it, o.cur, slices.Clone(o.adj.Out[o.cur]))
}

// run returns the iteration count the engine must report.
func (o *msgOracle) run(seeds []graph.VertexID, maxIter int) int {
	o.next = map[graph.VertexID]bool{}
	for _, v := range seeds {
		o.next[v] = true
	}
	for o.it = 0; o.it < maxIter && len(o.next) > 0; o.it++ {
		active := o.next
		o.next = map[graph.VertexID]bool{}
		// o.pending still holds what the previous iteration's
		// RunOnIterationEnd calls sent.
		for v := range active {
			o.cur = v
			o.rules.onRun(o, o.it, v, &o.buf)
		}
		for len(o.pending) > 0 {
			round := o.pending
			o.pending = nil
			for _, a := range round {
				o.want = append(o.want, delivery{o.it, a.to, a.msg.From, a.msg.Kind, a.msg.I64, a.msg.F64})
				o.cur = a.to
				o.rules.onMessage(o, o.it, a.to, a.msg, &o.buf)
			}
		}
		ends := o.iterEnd
		o.iterEnd = nil
		for _, v := range ends {
			o.cur = v
			o.rules.onIterEnd(o, o.it, v, &o.buf)
		}
	}
	return o.it
}

// msgCase is one engine configuration × one program.
type msgCase struct {
	rules   *msgRules
	seeds   []graph.VertexID
	maxIter int
	threads int
	shift   uint
	sem     bool
}

func runMsgCase(t *testing.T, img *graph.Image, adj *graph.Adjacency, c msgCase) {
	t.Helper()
	c.rules.n = img.NumV
	oracle := &msgOracle{rules: c.rules, adj: adj}
	wantIters := oracle.run(c.seeds, c.maxIter)

	mutate := func(cfg *Config) {
		cfg.Threads, cfg.RangeShift, cfg.MaxRunning = c.threads, c.shift, 16
	}
	var eng *Engine
	if c.sem {
		eng = semEngine(t, img, func(cfg *Config) {
			mutate(cfg)
			// A cache of a few pages keeps loads, evictions and
			// bypasses in play while messages are in flight.
			cfg.FS = newTestFS(t, safs.Config{CacheBytes: 8 * 4096})
		})
	} else {
		eng = memEngine(t, img, mutate)
	}
	prog := &msgProgram{rules: c.rules, seeds: c.seeds, maxIter: c.maxIter}
	st, err := eng.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != wantIters {
		t.Fatalf("engine ran %d iterations, model %d", st.Iterations, wantIters)
	}
	if st.Messages != oracle.sent {
		t.Fatalf("RunStats.Messages = %d, model sent %d", st.Messages, oracle.sent)
	}
	var got []delivery
	for _, g := range prog.got {
		got = append(got, g...)
	}
	want := oracle.want
	slices.SortFunc(got, compareDelivery)
	slices.SortFunc(want, compareDelivery)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("delivery %d of %d/%d differs: engine %+v, model %+v", i, len(got), len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine delivered %d messages, model %d", len(got), len(want))
	}
	t.Logf("iters %d, sent %d, delivered %d", wantIters, oracle.sent, len(want))
	if len(want) == 0 {
		t.Fatal("program delivered no messages: the case tests nothing")
	}
}

func TestMessageModelExactlyOnce(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		img, adj := buildTestImage(t, 6+int(seed%3), 5, 100+seed)
		seeds := []graph.VertexID{0, graph.VertexID(img.NumV / 2), graph.VertexID(img.NumV - 1)}
		for v := 0; v < img.NumV; v += int(seed) + 1 {
			seeds = append(seeds, graph.VertexID(v))
		}
		for _, threads := range []int{1, 3, 8} {
			for _, sem := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/threads%d/sem=%v", seed, threads, sem)
				t.Run(name, func(t *testing.T) {
					runMsgCase(t, img, adj, msgCase{
						rules: &msgRules{seed: seed}, seeds: seeds, maxIter: 7,
						threads: threads, shift: uint(1 + seed%3), sem: sem,
					})
				})
			}
		}
	}
}

// TestMessageModelChunkBoundaries drives the model through the places
// where a chunk fills: a multicast longer than one chunk's targets, a
// burst of Sends that exhausts the header array first, and a multicast
// whose targets all fall into one partition — each from one vertex in
// iteration 0 on top of the random traffic, at Threads 1 and 3.
func TestMessageModelChunkBoundaries(t *testing.T) {
	if unsafe.Sizeof(msgChunk{}) > 32<<10 {
		t.Fatalf("msgChunk is %d bytes: past 32 KiB it is a large object, zeroed on every allocation", unsafe.Sizeof(msgChunk{}))
	}
	img, adj := buildTestImage(t, 8, 5, 77)
	n := graph.VertexID(img.NumV)
	const shift = 3
	once := func(f func(s msgSink, buf *[]graph.VertexID)) func(msgSink, int, graph.VertexID, *[]graph.VertexID) {
		return func(s msgSink, it int, v graph.VertexID, buf *[]graph.VertexID) {
			if it == 0 && v == 5 {
				f(s, buf)
			}
		}
	}
	cases := map[string]func(threads int) func(s msgSink, buf *[]graph.VertexID){
		"long-multicast": func(int) func(msgSink, *[]graph.VertexID) {
			return func(s msgSink, buf *[]graph.VertexID) {
				ts := (*buf)[:0]
				for i := 0; i < 2*chunkTargets+17; i++ {
					ts = append(ts, graph.VertexID(i)%n)
				}
				*buf = ts
				s.Multicast(ts, Message{Kind: 8, I64: 1})
				scribble(ts)
			}
		},
		"sends-fill-headers": func(int) func(msgSink, *[]graph.VertexID) {
			return func(s msgSink, _ *[]graph.VertexID) {
				// All to vertex 1's granule: one partition's chunk takes
				// chunkHdrs headers long before chunkTargets targets.
				for i := 0; i < 2*chunkHdrs+3; i++ {
					s.Send(graph.VertexID(i%(1<<shift)), Message{Kind: 9, I64: int64(i) << 2})
				}
			}
		},
		"one-partition-multicast": func(threads int) func(msgSink, *[]graph.VertexID) {
			part := newPartition(img, threads, shift) // the engine's own table
			return func(s msgSink, buf *[]graph.VertexID) {
				ts := (*buf)[:0]
				for len(ts) < chunkTargets+100 {
					for v := graph.VertexID(0); v < n; v++ {
						if part.of(v) == threads-1 {
							ts = append(ts, v)
						}
					}
				}
				*buf = ts
				s.Multicast(ts, Message{Kind: 10, I64: 2})
				scribble(ts)
			}
		},
	}
	for name, mk := range cases {
		for _, threads := range []int{1, 3} {
			for _, sem := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/threads%d/sem=%v", name, threads, sem), func(t *testing.T) {
					runMsgCase(t, img, adj, msgCase{
						rules: &msgRules{seed: 9, extra: once(mk(threads))},
						seeds: []graph.VertexID{5, 6, 100, 200}, maxIter: 5,
						threads: threads, shift: shift, sem: sem,
					})
				})
			}
		}
	}
}
