package algo

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// writerFor returns the canonical encoder for adj in the given on-SSD
// layout.
func writerFor(a *graph.Adjacency, enc graph.Encoding) *graph.ImageWriter {
	iw := &graph.ImageWriter{
		NumV: a.N, Directed: a.Directed, Encoding: enc, Out: graph.SliceSource(a.Out),
	}
	if a.Directed {
		iw.In = graph.SliceSource(a.In)
	}
	return iw
}

// equivCase is one (engine, encoding, image/serving mode) combination
// of the equivalence matrix.
type equivCase struct {
	engine core.EngineKind
	enc    graph.Encoding
	mode   string // "mem" (RAM image, in-memory), "sem" (RAM image via SAFS), "semfile" (file-backed image via SAFS)
}

func (c equivCase) String() string {
	return fmt.Sprintf("%s/%s/%s", c.engine, c.enc, c.mode)
}

// runEquivCase executes one freshly built program on the case's engine
// and returns its ResultSet checksum.
func runEquivCase(t *testing.T, c equivCase, a *graph.Adjacency, name string, build func() core.Program) string {
	t.Helper()
	var img *graph.Image
	var err error
	if c.mode == "semfile" {
		path := filepath.Join(t.TempDir(), "g.img")
		if _, err = graph.WriteImageFile(path, writerFor(a, c.enc)); err != nil {
			t.Fatal(err)
		}
		if img, err = graph.OpenImageFile(path); err != nil {
			t.Fatal(err)
		}
	} else if img, err = writerFor(a, c.enc).BuildImage(); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Threads: 3, RangeShift: 4}
	if c.mode == "mem" {
		cfg.InMemory = true
	} else {
		arr := ssd.NewArray(ssd.ArrayParams{Devices: 2, StripeSize: 16 * 4096})
		t.Cleanup(arr.Close)
		cfg.FS = safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	}
	shared, err := core.NewShared(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shared.NewEngine(c.engine)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prog := build()
	st, err := eng.Run(prog)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	if st.Engine != string(c.engine) {
		t.Fatalf("%s: RunStats.Engine = %q", c, st.Engine)
	}
	return result.From(prog, name).Checksum()
}

// TestEnginesChecksumIdentical is the engine-equivalence suite: every
// algorithm with both executable forms (pagerank, wcc, labelprop) must
// produce a checksum-identical ResultSet on the message-passing engine
// over raw and delta and the SpMV engine over block, across in-memory,
// SEM, and file-backed image serving. This is the contract that lets a
// catalog serve one graph in two layouts, each on its own engine,
// without changing any answer.
func TestEnginesChecksumIdentical(t *testing.T) {
	a := graph.FromEdges(1<<10, gen.RMAT(10, 8, 7), true)
	a.Dedup()

	algos := map[string]func() core.Program{
		"pagerank":  func() core.Program { return NewPageRank() },
		"wcc":       func() core.Program { return NewWCC() },
		"labelprop": func() core.Program { return NewLabelProp() },
	}

	// The vertex engine serves the two per-vertex record layouts, the
	// SpMV engine the block layout.
	cases := []equivCase{
		{core.EngineVertex, graph.EncodingRaw, "mem"},
		{core.EngineVertex, graph.EncodingRaw, "sem"},
		{core.EngineVertex, graph.EncodingDelta, "sem"},
		{core.EngineVertex, graph.EncodingDelta, "semfile"},
		{core.EngineSpMV, graph.EncodingBlock, "mem"},
		{core.EngineSpMV, graph.EncodingBlock, "sem"},
		{core.EngineSpMV, graph.EncodingBlock, "semfile"},
	}

	for name, build := range algos {
		t.Run(name, func(t *testing.T) {
			want := runEquivCase(t, cases[0], a, name, build)
			for _, c := range cases[1:] {
				if got := runEquivCase(t, c, a, name, build); got != want {
					t.Errorf("%s: checksum %s != %s (%s)", c, got, want, cases[0])
				}
			}
		})
	}
}

// TestEngineFormMismatches pins the cross-form error surface: each
// engine rejects the other form's programs, and each layout refuses the
// other layout's engine.
func TestEngineFormMismatches(t *testing.T) {
	a := graph.FromEdges(1<<6, gen.RMAT(6, 4, 7), true)
	a.Dedup()

	shared := map[graph.Encoding]*core.Shared{}
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingBlock} {
		img, err := writerFor(a, enc).BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		if shared[enc], err = core.NewShared(img, core.Config{Threads: 2, InMemory: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := shared[graph.EncodingBlock].NewEngine(core.EngineVertex); !errors.Is(err, core.ErrWrongEngine) {
		t.Fatalf("vertex engine on a block-encoded image: %v, want ErrWrongEngine", err)
	}
	if _, err := shared[graph.EncodingRaw].NewEngine(core.EngineSpMV); !errors.Is(err, core.ErrWrongEngine) {
		t.Fatalf("SpMV engine on a raw image: %v, want ErrWrongEngine", err)
	}
	if _, err := shared[graph.EncodingRaw].NewEngine("turbo"); err == nil {
		t.Fatal("NewEngine accepted an unknown kind")
	}
	spmv, err := shared[graph.EncodingBlock].NewEngine(core.EngineSpMV)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spmv.Run(NewBFS(0)); err == nil {
		t.Fatal("SpMV engine ran a vertex-only program")
	}
	vertex, err := shared[graph.EncodingRaw].NewEngine(core.EngineVertex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vertex.Run(onlySpMV{}); err == nil {
		t.Fatal("vertex engine ran an SpMV-only program")
	}
}

// onlySpMV implements core.SpMVProgram but not core.Algorithm.
type onlySpMV struct{}

func (onlySpMV) Init(core.ExecutionEngine) {}
func (onlySpMV) BeginIteration(core.ExecutionEngine, int) []graph.EdgeDir {
	return nil
}
func (onlySpMV) ApplyRow(graph.EdgeDir, graph.VertexID, []graph.VertexID) {}
func (onlySpMV) EndIteration(core.ExecutionEngine, int) bool              { return true }

// tracedShapePR exposes PageRank as core.Algorithm plus
// core.IterationLimiter only — the shape of a tracing wrapper — which
// hides core.MessageBatchReceiver, so the engine delivers per message.
type tracedShapePR struct {
	core.Algorithm
	core.IterationLimiter
	delivered *atomic.Int64
}

func (p tracedShapePR) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {
	p.delivered.Add(1)
	p.Algorithm.RunOnMessage(ctx, v, msg)
}

// hookedPR embeds PageRank and declares its own OnIterationEnd, the way
// a harness timestamps iterations; RunOnMessages is promoted unchanged.
type hookedPR struct {
	*PageRank
	ticks *atomic.Int64
}

func (h hookedPR) OnIterationEnd(*core.Engine) { h.ticks.Add(1) }

// The embedding shape must keep the batch hook, or every timed pass that
// wraps PageRank this way silently falls back to per-message delivery.
var _ core.MessageBatchReceiver = hookedPR{}

// TestPageRankBatchDeliveryEquivalence: bare PageRank and the embedding
// shape take delivery a header at a time, the wrapper shape per message;
// all three give one checksum, message count and iteration count on
// every encoding × mode × thread count.
func TestPageRankBatchDeliveryEquivalence(t *testing.T) {
	a := graph.FromEdges(1<<11, gen.RMAT(11, 8, 5), true)
	a.Dedup()
	if _, ok := any(tracedShapePR{}).(core.MessageBatchReceiver); ok {
		t.Fatal("the wrapper shape exposes the batch hook: the per-message path goes untested")
	}
	type outcome struct {
		sum             string
		messages, iters int64
	}
	forms := map[string]func() (core.Algorithm, *PageRank){
		"bare": func() (core.Algorithm, *PageRank) {
			pr := NewPageRank()
			return pr, pr
		},
		"wrapped": func() (core.Algorithm, *PageRank) {
			pr := NewPageRank()
			return tracedShapePR{pr, pr, &atomic.Int64{}}, pr
		},
		"embedded": func() (core.Algorithm, *PageRank) {
			pr := NewPageRank()
			return hookedPR{pr, &atomic.Int64{}}, pr
		},
	}
	var want *outcome
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta} {
		img := buildImage(t, a, enc)
		for _, mem := range []bool{true, false} {
			for _, threads := range []int{1, 2, 8} {
				c := bfsConfig{enc: enc, mem: mem, threads: threads}
				for name, form := range forms {
					alg, pr := form()
					st, err := c.engine(t, img).Run(alg)
					if err != nil {
						t.Fatalf("%s/%s: %v", c, name, err)
					}
					got := &outcome{pr.Result().Checksum(), st.Messages, int64(st.Iterations)}
					switch f := alg.(type) {
					case tracedShapePR:
						if d := f.delivered.Load(); d != st.Messages {
							t.Fatalf("%s/%s: %d RunOnMessage calls for %d messages", c, name, d, st.Messages)
						}
					case hookedPR:
						if n := f.ticks.Load(); n != int64(st.Iterations) {
							t.Fatalf("%s/%s: hook ran %d times in %d iterations", c, name, n, st.Iterations)
						}
					}
					if want == nil {
						want = got
						t.Logf("%s/%s: checksum %s, %d messages, %d iterations", c, name, got.sum, got.messages, got.iters)
					} else if *got != *want {
						t.Fatalf("%s/%s: %+v, want %+v", c, name, *got, *want)
					}
				}
			}
		}
	}
}

// sweptPR embeds PageRank and declares its own EndIteration, the way a
// harness timestamps sweeps; ColumnLocal is promoted unchanged.
type sweptPR struct {
	*PageRank
	ticks *atomic.Int64
}

func (s sweptPR) EndIteration(eng core.ExecutionEngine, iter int) bool {
	s.ticks.Add(1)
	return s.PageRank.EndIteration(eng, iter)
}

// The embedding shape must keep the marker, or every timed sweep that
// wraps PageRank this way silently falls back to one goroutine.
var _ core.ColumnLocal = sweptPR{}

// TestPageRankColumnParallelSweep: SpMV PageRank over a 4 × 4 block grid,
// bare and embedded, from memory and through SAFS, at 1 thread (the
// serial sweep) and at 2 and 8 (column groups on several goroutines),
// gives the vertex engine's checksum and iteration count, and reads the
// serial run's stripes.
func TestPageRankColumnParallelSweep(t *testing.T) {
	a := graph.FromEdges(1<<18, gen.RMAT(18, 1, 5), true)
	a.Dedup()
	type outcome struct {
		sum   string
		iters int
	}
	// Ten iterations keep the race pass short; every one is a full sweep.
	vpr := NewPageRank()
	vpr.Iters = 10
	st, err := (bfsConfig{enc: graph.EncodingRaw, mem: true, threads: 2}).engine(t, buildImage(t, a, graph.EncodingRaw)).Run(vpr)
	if err != nil {
		t.Fatal(err)
	}
	want := outcome{vpr.Result().Checksum(), st.Iterations}
	t.Logf("vertex engine: checksum %s, %d iterations", want.sum, want.iters)

	img := buildImage(t, a, graph.EncodingBlock)
	if bd := img.OutIndex.Blocks(); bd.Stripes != 4 {
		t.Fatalf("grid is %d × %d, want 4 × 4", bd.Stripes, bd.Stripes)
	}
	for _, mem := range []bool{true, false} {
		var serialReads int64
		for _, threads := range []int{1, 2, 8} {
			cfg := core.Config{Threads: threads, InMemory: mem}
			if !mem {
				arr := ssd.NewArray(ssd.ArrayParams{Devices: 2, StripeSize: 16 * 4096})
				t.Cleanup(arr.Close)
				cfg.FS = safs.New(arr, safs.Config{CacheBytes: 1 << 20})
			}
			shared, err := core.NewShared(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, embedded := range []bool{false, true} {
				name := fmt.Sprintf("mem=%v/T%d/embedded=%v", mem, threads, embedded)
				pr := NewPageRank()
				pr.Iters = vpr.Iters
				var prog core.Program = pr
				ticks := &atomic.Int64{}
				if embedded {
					prog = sweptPR{pr, ticks}
				}
				eng, err := shared.NewEngine(core.EngineSpMV)
				if err != nil {
					t.Fatal(err)
				}
				st, err := eng.Run(prog)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := (outcome{pr.Result().Checksum(), st.Iterations}); got != want {
					t.Fatalf("%s: %+v, vertex engine %+v", name, got, want)
				}
				if embedded && ticks.Load() != int64(st.Iterations) {
					t.Fatalf("%s: EndIteration ran %d times in %d iterations", name, ticks.Load(), st.Iterations)
				}
				if serialReads == 0 {
					serialReads = st.EdgeRequests
				} else if st.EdgeRequests != serialReads {
					t.Fatalf("%s: %d stripe reads, serial run %d", name, st.EdgeRequests, serialReads)
				}
			}
		}
	}
}
