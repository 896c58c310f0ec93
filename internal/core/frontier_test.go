package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"flashgraph/internal/graph"
)

// frontierProbe checks that the next-iteration bitmap is an exact record
// of the frontier with no counter beside it. Iteration 0 runs every
// vertex, each activating the same ten vertices several times over from
// whichever worker runs it; iteration 1 activates nothing, and the hook —
// seeing an empty frontier, as BC does at its phase switch — seeds two
// vertices (one of them twice); iteration 2 activates nothing and the run
// must end.
type frontierProbe struct {
	seedAll   bool
	afterSeed int64 // PendingActivations at the end of Init

	mu      sync.Mutex
	ran     [][]graph.VertexID // vertices run, per iteration
	pending []int64            // PendingActivations at each hook, before it seeds
}

func (p *frontierProbe) Init(eng ExecutionEngine) {
	if p.seedAll {
		eng.ActivateAllSeeds()
	}
	p.afterSeed = eng.PendingActivations()
}

func (p *frontierProbe) Run(ctx *Ctx, v graph.VertexID) {
	it := ctx.Iteration()
	p.mu.Lock()
	for len(p.ran) <= it {
		p.ran = append(p.ran, nil)
	}
	p.ran[it] = append(p.ran[it], v)
	p.mu.Unlock()
	if it == 0 {
		ctx.Activate(v % 10)
		ctx.ActivateMany([]graph.VertexID{v * 7 % 10, v % 10, v * 3 % 10})
		ctx.ActivateMany(nil)
	}
}

func (p *frontierProbe) RunOnVertex(*Ctx, graph.VertexID, *graph.PageVertex) {}
func (p *frontierProbe) RunOnMessage(*Ctx, graph.VertexID, Message)          {}

func (p *frontierProbe) OnIterationEnd(eng *Engine) {
	n := eng.PendingActivations()
	p.pending = append(p.pending, n)
	if n == 0 && len(p.pending) == 2 {
		eng.ActivateSeed(5)
		eng.ActivateSeed(77)
		eng.ActivateSeed(5)
		p.pending = append(p.pending, eng.PendingActivations())
	}
}

func TestFrontierIsExactWithoutACounter(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 3)
	for _, threads := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("threads%d", threads), func(t *testing.T) {
			eng := memEngine(t, img, func(c *Config) { c.Threads, c.RangeShift = threads, 2 })
			p := &frontierProbe{seedAll: true}
			st, err := eng.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if p.afterSeed != int64(img.NumV) {
				t.Fatalf("PendingActivations after ActivateAllSeeds = %d, want %d", p.afterSeed, img.NumV)
			}
			// Hook 0 sees the ten survivors of 4×NumV activations, hook 1
			// an empty frontier and then its own two seeds, hook 2 nothing.
			if want := []int64{10, 0, 2, 0}; !slices.Equal(p.pending, want) {
				t.Fatalf("PendingActivations at the hooks = %v, want %v", p.pending, want)
			}
			if st.Iterations != 3 || len(p.ran) != 3 {
				t.Fatalf("ran %d iterations (%d observed), want 3", st.Iterations, len(p.ran))
			}
			for _, r := range p.ran {
				slices.Sort(r)
			}
			if len(p.ran[0]) != img.NumV ||
				!slices.Equal(p.ran[1], []graph.VertexID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) ||
				!slices.Equal(p.ran[2], []graph.VertexID{5, 77}) {
				t.Fatalf("frontiers: %d vertices, %v, %v", len(p.ran[0]), p.ran[1], p.ran[2])
			}
			if eng.PendingActivations() != 0 {
				t.Fatalf("PendingActivations after the run = %d", eng.PendingActivations())
			}
		})
	}
}

// TestEmptyFrontierRunsNothing: a program that seeds nothing ends before
// its first iteration.
func TestEmptyFrontierRunsNothing(t *testing.T) {
	img, _ := buildTestImage(t, 6, 4, 3)
	eng := memEngine(t, img, nil)
	p := &frontierProbe{}
	st, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 || len(p.ran) != 0 || p.afterSeed != 0 || len(p.pending) != 0 {
		t.Fatalf("empty frontier: %d iterations, ran %v, pending %d / %v", st.Iterations, p.ran, p.afterSeed, p.pending)
	}
}
