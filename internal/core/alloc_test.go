package core

import (
	"runtime"
	"testing"

	"flashgraph/internal/graph"
)

// selfMulticast is the shape of the benchmark's message-path probe:
// every vertex, every iteration, requests its own out-edge list and
// multicasts one message to all of it; receiving does nothing.
type selfMulticast struct {
	iters   int
	targets [][]graph.VertexID
}

func (m *selfMulticast) Init(eng ExecutionEngine) {
	m.targets = make([][]graph.VertexID, eng.Threads())
	eng.ActivateAllSeeds()
}
func (m *selfMulticast) Run(ctx *Ctx, v graph.VertexID) { ctx.RequestSelf(graph.OutEdges) }
func (m *selfMulticast) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	w := ctx.WorkerID()
	m.targets[w] = pv.Edges(m.targets[w][:0], nil)
	ctx.Multicast(m.targets[w], Message{I64: 1})
}
func (m *selfMulticast) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}
func (m *selfMulticast) MaxIterations() int                                   { return m.iters }
func (m *selfMulticast) OnIterationEnd(eng *Engine)                           { eng.ActivateAllSeeds() }

// TestMessageRoundAllocatesNothing is the gate on the message path
// proper: on a warmed 3-thread engine, multicast → hand-over → deliver
// allocates only the chunks that turn over — a worker keeps Threads
// spares and buffers more than that here — and nothing per message.
func TestMessageRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	img, _ := buildTestImage(t, 10, 4, 31)
	eng := memEngine(t, img, func(c *Config) { c.Threads = 3 })
	eng.alg = &selfMulticast{}
	targets := make([]graph.VertexID, img.NumV)
	for i := range targets {
		targets[i] = graph.VertexID(i)
	}
	for _, w := range eng.workers {
		w.partCtx = &Ctx{eng: eng, w: w}
	}
	const multicasts = 16
	round := func() {
		for _, w := range eng.workers {
			for i := 0; i < multicasts; i++ {
				w.multicast(targets, Message{From: 1, I64: int64(i)})
				w.multicast(targets[i:i+1], Message{From: 2})
			}
		}
		for moved := int64(1); moved != 0; {
			moved = 0
			for _, w := range eng.workers {
				moved += w.messagePhase()
			}
		}
	}
	round()
	before := eng.workers[0].sent
	allocs := testing.AllocsPerRun(20, round)
	perRound := float64(eng.workers[0].sent-before) / 21 * float64(len(eng.workers))
	if perRound < multicasts*float64(img.NumV) {
		t.Fatalf("a round sent %.0f messages: the gate measured something else", perRound)
	}
	// Every chunk past a worker's spares is one allocation; a round fills
	// perRound/chunkTargets of them, rounded up per (sender, partition).
	turnover := perRound/chunkTargets + float64(len(eng.workers)*len(eng.workers))
	t.Logf("%.1f allocs per round of %.0f messages, turnover bound %.1f", allocs, perRound, turnover)
	if allocs > turnover || allocs/perRound >= 0.001 {
		t.Fatalf("a round of %.0f messages allocates %.1f objects (chunk turnover allows %.0f)", perRound, allocs, turnover)
	}
}

// TestRunAllocatesNothingPerMessage is the whole-run gate: requests,
// in-memory delivery, multicast, hand-over, message phase, barriers —
// under one malloc per thousand messages, engine construction included.
func TestRunAllocatesNothingPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	img, _ := buildTestImage(t, 13, 16, 32)
	shared, err := NewShared(img, Config{Threads: 3, InMemory: true, RangeShift: 6})
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) (RunStats, uint64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := shared.NewRun().Run(&selfMulticast{iters: iters})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return st, m1.Mallocs - m0.Mallocs
	}
	run(1)
	st, mallocs := run(8)
	if st.Messages < 500_000 {
		t.Fatalf("only %d messages: the gate measured something else", st.Messages)
	}
	t.Logf("%d mallocs, %d messages", mallocs, st.Messages)
	if per := float64(mallocs) / float64(st.Messages); per >= 0.001 {
		t.Fatalf("%d mallocs for %d messages = %.4f per message, want < 0.001", mallocs, st.Messages, per)
	}
}
