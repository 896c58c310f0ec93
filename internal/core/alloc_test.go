package core

import (
	"runtime"
	"testing"

	"flashgraph/internal/graph"
)

// selfMulticast is the shape of the benchmark's message-path probe:
// every vertex, every iteration, requests its own out-edge list, decodes
// it through the engine's buffer and multicasts one message to all of
// it; receiving does nothing.
type selfMulticast struct{ iters int }

func (m *selfMulticast) Init(eng ExecutionEngine)       { eng.ActivateAllSeeds() }
func (m *selfMulticast) Run(ctx *Ctx, v graph.VertexID) { ctx.RequestSelf(graph.OutEdges) }
func (m *selfMulticast) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	ctx.Multicast(ctx.Neighbors(pv), Message{I64: 1})
}
func (m *selfMulticast) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}
func (m *selfMulticast) MaxIterations() int                                   { return m.iters }
func (m *selfMulticast) OnIterationEnd(eng *Engine)                           { eng.ActivateAllSeeds() }

// selfMulticastSum is selfMulticast as a SumReceiver.
type selfMulticastSum struct{ selfMulticast }

func (m *selfMulticastSum) RunOnSums(*Ctx, graph.VertexID, []int64) {}

// selfMulticasts are the two delivery paths the allocation gates hold:
// per message, and in batches — one RunOnSums per owned range.
func selfMulticasts(iters int) map[string]Algorithm {
	return map[string]Algorithm{
		"per-message": &selfMulticast{iters: iters},
		"batch":       &selfMulticastSum{selfMulticast{iters: iters}},
	}
}

// TestMessageRoundAllocatesNothing is the gate on the message path
// proper: on a warmed 3-thread engine, multicast → hand-over → deliver
// allocates only the chunks that turn over — a worker keeps Threads
// spares and buffers more than that here — and nothing per message;
// summing into each worker's array and folding them allocates nothing.
func TestMessageRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	img, _ := buildTestImage(t, 10, 4, 31)
	for name, alg := range selfMulticasts(0) {
		t.Run(name, func(t *testing.T) { messageRoundAllocates(t, img, alg) })
	}
}

func messageRoundAllocates(t *testing.T, img *graph.Image, alg Algorithm) {
	eng := memEngine(t, img, func(c *Config) { c.Threads = 3 })
	eng.alg = alg
	if _, ok := alg.(SumReceiver); ok {
		for _, w := range eng.workers {
			w.sums = make([]int64, img.NumV) // as Run would
		}
	}
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
	run := func(alg Algorithm) (RunStats, uint64) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := shared.NewRun().Run(alg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return st, m1.Mallocs - m0.Mallocs
	}
	for name := range selfMulticasts(0) {
		t.Run(name, func(t *testing.T) {
			run(selfMulticasts(1)[name])
			st, mallocs := run(selfMulticasts(8)[name])
			if st.Messages < 500_000 {
				t.Fatalf("only %d messages: the gate measured something else", st.Messages)
			}
			t.Logf("%d mallocs, %d messages", mallocs, st.Messages)
			if per := float64(mallocs) / float64(st.Messages); per >= 0.001 {
				t.Fatalf("%d mallocs for %d messages = %.4f per message, want < 0.001", mallocs, st.Messages, per)
			}
		})
	}
}
