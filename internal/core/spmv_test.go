package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// rowLog digests a sequence of ApplyRow deliveries: an order-sensitive
// hash of every (dir, row, cols...), the call count and Σ len(cols).
type rowLog struct {
	hash  uint64
	calls int64
	edges int64
}

func (l *rowLog) mix(x uint32) { l.hash = (l.hash ^ uint64(x)) * 1099511628211 } // FNV-1a, a word at a time

func (l *rowLog) add(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	l.mix(uint32(dir))
	l.mix(row)
	l.mix(uint32(len(cols)))
	for _, c := range cols {
		l.mix(c)
	}
	l.calls++
	l.edges += int64(len(cols))
}

// rowRecorder is an SpMV program that sweeps both directions once and
// logs what the engine hands it.
type rowRecorder struct{ rowLog }

func (p *rowRecorder) Init(ExecutionEngine) {}
func (p *rowRecorder) BeginIteration(_ ExecutionEngine, iter int) []graph.EdgeDir {
	if iter > 0 {
		return nil
	}
	return []graph.EdgeDir{graph.OutEdges, graph.InEdges}
}
func (p *rowRecorder) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	p.add(dir, row, cols)
}
func (p *rowRecorder) EndIteration(ExecutionEngine, int) bool { return true }

// referenceRuns walks a block image's edge data with the graph
// package's decoder called directly, in the order the SpMV engine
// promises: per direction, blocks in (row stripe, column stripe, row)
// order.
func referenceRuns(t *testing.T, img *graph.Image) rowLog {
	t.Helper()
	var log rowLog
	walkReference(t, img, log.add)
	return log
}

// walkReference hands fn every run of referenceRuns' walk, in order.
func walkReference(t *testing.T, img *graph.Image, fn func(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID)) {
	t.Helper()
	var scratch []graph.VertexID
	for _, d := range []struct {
		dir  graph.EdgeDir
		data []byte
		ix   *graph.Index
	}{{graph.OutEdges, img.OutData, img.OutIndex}, {graph.InEdges, img.InData, img.InIndex}} {
		bd := d.ix.Blocks()
		for r := 0; r < bd.Stripes; r++ {
			off, size := bd.StripeExtent(r)
			var err error
			scratch, err = bd.DecodeStripe(d.data[off:off+size], r, img.AttrSize, scratch, func(row graph.VertexID, cols []graph.VertexID, _ []byte) {
				fn(d.dir, row, cols)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// refusesSweep holds that shared, a record-layout substrate, refuses the
// SpMV engine with ErrWrongEngine at NewEngine and at a stamped engine's
// Run guard, before the program sees a row.
func refusesSweep(t *testing.T, shared *Shared) {
	t.Helper()
	if _, err := shared.NewEngine(EngineSpMV); !errors.Is(err, ErrWrongEngine) {
		t.Fatalf("NewEngine(spmv) on a %s image: %v, want ErrWrongEngine", shared.Image().Encoding, err)
	}
	rec := &rowRecorder{}
	if _, err := shared.newSpMVRun().Run(rec); !errors.Is(err, ErrWrongEngine) || rec.calls != 0 {
		t.Fatalf("SpMV Run on a %s image: %v after %d rows, want ErrWrongEngine before any", shared.Image().Encoding, err, rec.calls)
	}
}

// TestLayoutPicksEngine: Shared.Kind sends block images to the SpMV
// engine and raw and delta images to the vertex engine. NewEngine
// stamps out that kind only, and each engine's Run guard refuses a run
// over the other's layout (Shared.NewRun is public), all with
// ErrWrongEngine and before the program's Init.
func TestLayoutPicksEngine(t *testing.T) {
	for _, tc := range []struct {
		enc         graph.Encoding
		kind, other EngineKind
	}{
		{graph.EncodingRaw, EngineVertex, EngineSpMV},
		{graph.EncodingDelta, EngineVertex, EngineSpMV},
		{graph.EncodingBlock, EngineSpMV, EngineVertex},
	} {
		t.Run(tc.enc.String(), func(t *testing.T) {
			img, _ := buildEncodedImage(t, 9, 4, 7, 0, tc.enc)
			shared, err := NewShared(img, Config{Threads: 2, InMemory: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := shared.Kind(); got != tc.kind {
				t.Fatalf("Kind() = %s, want %s", got, tc.kind)
			}
			if eng, err := shared.NewEngine(tc.kind); err != nil || eng.Kind() != tc.kind {
				t.Fatalf("NewEngine(%s): %v", tc.kind, err)
			}
			for _, k := range []EngineKind{tc.other, "turbo"} {
				if _, err := shared.NewEngine(k); !errors.Is(err, ErrWrongEngine) {
					t.Fatalf("NewEngine(%s): %v, want ErrWrongEngine", k, err)
				}
			}
			if tc.kind == EngineVertex {
				refusesSweep(t, shared)
				return
			}
			bfs := &testBFS{src: 0}
			if _, err := shared.NewRun().Run(bfs); !errors.Is(err, ErrWrongEngine) || bfs.level != nil {
				t.Fatalf("vertex Run on a block image: %v (initialised %t), want ErrWrongEngine before Init", err, bfs.level != nil)
			}
		})
	}
}

// TestSpMVDeliversReferenceRuns is the row-side analogue of the message
// model test: whatever the decoder under the SpMV engine becomes, the
// sequence of ApplyRow calls a program sees — which rows, in which
// order, with which columns — is the one a direct walk of the block
// image yields, from memory and through SAFS. The graph spans a 2×2
// block grid, so rows are delivered once per block they touch. The raw
// and delta copies of the graph are not swept at all: they run on the
// vertex engine, and the SpMV engine refuses them.
func TestSpMVDeliversReferenceRuns(t *testing.T) {
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta, graph.EncodingBlock} {
		img, a := buildEncodedImage(t, 17, 2, 5, 0, enc)
		var want rowLog
		if enc == graph.EncodingBlock {
			want = referenceRuns(t, img)
			var degreeSum int64
			for v := range a.Out {
				degreeSum += int64(len(a.Out[v]) + len(a.In[v]))
			}
			if want.edges != degreeSum || want.calls == 0 {
				t.Fatalf("reference walk saw %d edges in %d runs, graph has %d", want.edges, want.calls, degreeSum)
			}
		}
		for _, mode := range []struct {
			name string
			cfg  func() Config
		}{
			{"mem", func() Config { return Config{InMemory: true} }},
			{"sem", func() Config { return Config{FS: newTestFS(t, safs.Config{CacheBytes: 1 << 20})} }},
		} {
			t.Run(enc.String()+"/"+mode.name, func(t *testing.T) {
				shared, err := NewShared(img, mode.cfg())
				if err != nil {
					t.Fatal(err)
				}
				if enc != graph.EncodingBlock {
					refusesSweep(t, shared)
					return
				}
				eng, err := shared.NewEngine(EngineSpMV)
				if err != nil {
					t.Fatal(err)
				}
				rec := &rowRecorder{}
				if _, err := eng.Run(rec); err != nil {
					t.Fatal(err)
				}
				if rec.rowLog != want {
					t.Fatalf("engine delivered %+v, reference walk %+v", rec.rowLog, want)
				}
			})
		}
	}
}

// spmvShared is the substrate the SpMV delivery tests sweep: img in
// memory or through SAFS, at the given thread count.
func spmvShared(t *testing.T, img *graph.Image, mem bool, threads int) *Shared {
	t.Helper()
	cfg := Config{Threads: threads, InMemory: mem}
	if !mem {
		cfg.FS = newTestFS(t, safs.Config{CacheBytes: 1 << 20})
	}
	shared, err := NewShared(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return shared
}

// splitByStripe cuts an ascending column run at column-stripe
// boundaries.
func splitByStripe(shift uint32, cols []graph.VertexID, fn func(c int, part []graph.VertexID)) {
	for len(cols) > 0 {
		c, n := cols[0]>>shift, 1
		for n < len(cols) && cols[n]>>shift == c {
			n++
		}
		fn(int(c), cols[:n])
		cols = cols[n:]
	}
}

// colRecorder is rowRecorder declared ColumnLocal. Runs of different
// column stripes may arrive on different goroutines at once, so it keeps
// one digest per column stripe, touched only by the goroutine applying
// that stripe.
type colRecorder struct {
	rowRecorder
	shift uint32
	logs  []rowLog
}

func (p *colRecorder) Init(eng ExecutionEngine) {
	bd := eng.Image().OutIndex.Blocks()
	p.shift, p.logs = bd.Shift, make([]rowLog, bd.Stripes)
}
func (p *colRecorder) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	splitByStripe(p.shift, cols, func(c int, part []graph.VertexID) { p.logs[c].add(dir, row, part) })
}
func (p *colRecorder) ColumnLocal() {}

// TestSpMVDeliversColumnRunsInOrder is the delivery contract of the
// column-parallel sweep: per column stripe, a ColumnLocal program sees
// the reference walk's runs in (row stripe, row) order — from memory
// and through SAFS, at one thread, at two and three (fewer goroutines
// than the 4 × 4 grid has column stripes) and at eight (more). The raw
// and delta copies are refused at every thread count: no ColumnLocal
// sweep runs over records.
func TestSpMVDeliversColumnRunsInOrder(t *testing.T) {
	var want []rowLog
	for _, enc := range []graph.Encoding{graph.EncodingBlock, graph.EncodingRaw, graph.EncodingDelta} {
		img, _ := buildEncodedImage(t, 18, 1, 5, 0, enc)
		if enc == graph.EncodingBlock {
			bd := img.OutIndex.Blocks()
			if bd.Stripes != 4 {
				t.Fatalf("grid is %d × %d, want 4 × 4", bd.Stripes, bd.Stripes)
			}
			want = make([]rowLog, bd.Stripes)
			walkReference(t, img, func(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
				splitByStripe(bd.Shift, cols, func(c int, part []graph.VertexID) { want[c].add(dir, row, part) })
			})
		}
		for _, mem := range []bool{true, false} {
			for _, threads := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/mem=%v/T%d", enc, mem, threads), func(t *testing.T) {
					shared := spmvShared(t, img, mem, threads)
					if enc != graph.EncodingBlock {
						refusesSweep(t, shared)
						return
					}
					eng, err := shared.NewEngine(EngineSpMV)
					if err != nil {
						t.Fatal(err)
					}
					rec := &colRecorder{}
					if _, err := eng.Run(rec); err != nil {
						t.Fatal(err)
					}
					for c := range want {
						if rec.logs[c] != want[c] {
							t.Fatalf("column stripe %d: engine delivered %+v, reference walk %+v", c, rec.logs[c], want[c])
						}
					}
				})
			}
		}
	}
}

// columnPanic is what columnPanicker panics with.
var columnPanic = errors.New("column boom")

// columnPanicker is a ColumnLocal program that panics on the first run
// of one column stripe. The first run of every other stripe waits in
// ApplyRow until that panic is under way, then lingers: a goroutine the
// engine failed to join would still be inside ApplyRow when Run unwinds.
// The linger only widens that window; a correct engine waits it out.
type columnPanicker struct {
	stripe    int
	shift     uint32
	panicking chan struct{}
	entered   []atomic.Bool
	inflight  atomic.Int64
}

func (p *columnPanicker) Init(eng ExecutionEngine) {
	bd := eng.Image().OutIndex.Blocks()
	p.shift = bd.Shift
	p.panicking = make(chan struct{})
	p.entered = make([]atomic.Bool, bd.Stripes)
}
func (p *columnPanicker) BeginIteration(_ ExecutionEngine, iter int) []graph.EdgeDir {
	if iter > 0 {
		return nil
	}
	return []graph.EdgeDir{graph.OutEdges}
}
func (p *columnPanicker) ApplyRow(_ graph.EdgeDir, _ graph.VertexID, cols []graph.VertexID) {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	c := int(cols[0] >> p.shift)
	if p.entered[c].Swap(true) {
		return
	}
	if c == p.stripe {
		close(p.panicking)
		panic(columnPanic)
	}
	<-p.panicking
	time.Sleep(10 * time.Millisecond)
}
func (p *columnPanicker) EndIteration(ExecutionEngine, int) bool { return true }
func (p *columnPanicker) ColumnLocal()                           {}

// TestSpMVColumnPanicJoinsHelpers: a panic in any column stripe — on
// Run's goroutine or on a helper — comes out of eng.Run with its own
// value, and only after every goroutine applying the stripe has
// returned. Threads equals the grid side, so each column stripe has a
// goroutine of its own and no first run waits behind the panicking one.
func TestSpMVColumnPanicJoinsHelpers(t *testing.T) {
	img, _ := buildEncodedImage(t, 18, 1, 5, 0, graph.EncodingBlock)
	stripes := img.OutIndex.Blocks().Stripes
	for _, mem := range []bool{true, false} {
		shared := spmvShared(t, img, mem, stripes)
		for c := 0; c < stripes; c++ {
			t.Run(fmt.Sprintf("mem=%v/column%d", mem, c), func(t *testing.T) {
				eng, err := shared.NewEngine(EngineSpMV)
				if err != nil {
					t.Fatal(err)
				}
				p := &columnPanicker{stripe: c}
				func() {
					defer func() {
						if v := recover(); v != columnPanic {
							t.Fatalf("Run panicked with %v, want %v", v, columnPanic)
						}
						if n := p.inflight.Load(); n != 0 {
							t.Fatalf("%d ApplyRow calls still running after Run panicked", n)
						}
					}()
					eng.Run(p)
				}()
			})
		}
	}
}

// blockDirWithColumns is a one-row-stripe-of-bytes grid whose column
// stripe c holds bytes[c]: block (0, c) carries them, every other block
// is empty.
func blockDirWithColumns(bytes []int64) *graph.BlockDir {
	s := len(bytes)
	bd := &graph.BlockDir{Shift: 16, Stripes: s, Offsets: make([]int64, s*s+1)}
	for i := 0; i < s*s; i++ {
		bd.Offsets[i+1] = bd.Offsets[i]
		if i < s {
			bd.Offsets[i+1] += bytes[i]
		}
	}
	return bd
}

// groupLoads returns each group's bytes.
func groupLoads(bytes []int64, groups [][]int) []int64 {
	loads := make([]int64, len(groups))
	for g, cols := range groups {
		for _, c := range cols {
			loads[g] += bytes[c]
		}
	}
	return loads
}

func TestColumnGroups(t *testing.T) {
	// The seed-1 spmv_sweep image (scale-18 R-MAT): bytes per column
	// stripe of its 4 × 4 out-edge grid.
	scale18 := []int64{3661620, 1443607, 1443030, 564950}
	for _, tc := range []struct {
		name    string
		bytes   []int64
		threads int
		want    [][]int
	}{
		{"scale-18 over two", scale18, 2, [][]int{{0}, {1, 2, 3}}},
		{"scale-18 over three", scale18, 3, [][]int{{0}, {1}, {2, 3}}},
		{"scale-18 over eight", scale18, 8, [][]int{{0}, {1}, {2}, {3}}},
		// Largest-first splits 7 / 6; c ≡ g splits 6 / 6 and wins.
		{"modular dealing lighter", []int64{2, 3, 2, 3, 2}, 2, [][]int{{0, 2, 4}, {1, 3}}},
		// Ties go to the lower column, then the lower group.
		{"ties", []int64{5, 5, 5, 5}, 2, [][]int{{0, 2}, {1, 3}}},
		{"ties among the small", []int64{1, 9, 1, 1}, 3, [][]int{{1}, {0, 3}, {2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := columnGroups(blockDirWithColumns(tc.bytes), tc.threads)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("columnGroups = %v, want %v (loads %v)", got, tc.want, groupLoads(tc.bytes, got))
			}
			t.Logf("loads %v", groupLoads(tc.bytes, got))
		})
	}

	// On any grid: every column in exactly one group, ascending within
	// it; the same answer twice; and a heaviest group never heavier than
	// dealing c ≡ g.
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		bytes := make([]int64, 2+rng.IntN(12))
		for c := range bytes {
			bytes[c] = rng.Int64N(1000)
		}
		threads := 2 + rng.IntN(6)
		bd := blockDirWithColumns(bytes)
		got := columnGroups(bd, threads)
		if again := columnGroups(bd, threads); !reflect.DeepEqual(got, again) {
			t.Fatalf("%v over %d: %v, then %v", bytes, threads, got, again)
		}
		k := min(threads, len(bytes))
		if len(got) != k {
			t.Fatalf("%v over %d: %d groups, want %d", bytes, threads, len(got), k)
		}
		var seen []int
		for _, cols := range got {
			if !slices.IsSorted(cols) {
				t.Fatalf("%v over %d: group %v not ascending", bytes, threads, cols)
			}
			seen = append(seen, cols...)
		}
		slices.Sort(seen)
		for c := range bytes {
			if c >= len(seen) || seen[c] != c {
				t.Fatalf("%v over %d: groups %v do not partition the columns", bytes, threads, got)
			}
		}
		mod := make([][]int, k)
		for c := range bytes {
			mod[c%k] = append(mod[c%k], c)
		}
		if heaviest, modular := slices.Max(groupLoads(bytes, got)), slices.Max(groupLoads(bytes, mod)); heaviest > modular {
			t.Fatalf("%v over %d: heaviest group %d bytes, c ≡ g dealing %d", bytes, threads, heaviest, modular)
		}
	}

	// Nothing to split: one thread, or a one-stripe grid.
	for _, tc := range []struct {
		bytes   []int64
		threads int
	}{{scale18, 1}, {[]int64{42}, 8}} {
		bd := blockDirWithColumns(tc.bytes)
		if got := columnGroups(bd, tc.threads); got != nil {
			t.Fatalf("%v over %d: %v, want no groups", tc.bytes, tc.threads, got)
		}
		if allocs := testing.AllocsPerRun(10, func() { columnGroups(bd, tc.threads) }); allocs != 0 {
			t.Fatalf("%v over %d: %.0f allocations, want 0", tc.bytes, tc.threads, allocs)
		}
	}
}

// sweepPush is PageRank's dense-sweep shape in fixed point: each of ten
// sweeps, every row pushes its damped delta, split over its out-degree,
// to its columns. Like algo.PageRank it is ColumnLocal.
type sweepPush struct{ acc, share []int64 }

func (p *sweepPush) Init(eng ExecutionEngine) {
	n := eng.NumVertices()
	p.acc, p.share = make([]int64, n), make([]int64, n)
	for v := range p.acc {
		p.acc[v] = 1 << 30
	}
}
func (p *sweepPush) BeginIteration(eng ExecutionEngine, iter int) []graph.EdgeDir {
	if iter == 10 {
		return nil
	}
	for v, d := range p.acc {
		p.acc[v], p.share[v] = 0, 0
		if deg := int64(eng.OutDegree(graph.VertexID(v))); deg > 0 {
			p.share[v] = d * 85 / 100 / deg
		}
	}
	return []graph.EdgeDir{graph.OutEdges}
}
func (p *sweepPush) ApplyRow(_ graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	s := p.share[row]
	for _, c := range cols {
		p.acc[c] += s
	}
}
func (p *sweepPush) EndIteration(ExecutionEngine, int) bool { return false }
func (p *sweepPush) ColumnLocal()                           {}

// BenchmarkSpMVSweep runs sweepPush on an in-memory block image of a
// scale-18 R-MAT graph (a 4 × 4 grid) at 1 and 2 threads, and reports
// wall time per edge swept.
func BenchmarkSpMVSweep(b *testing.B) {
	img, _ := buildEncodedImage(b, 18, 8, 41, 0, graph.EncodingBlock)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("T%d", threads), func(b *testing.B) {
			shared, err := NewShared(img, Config{Threads: threads, InMemory: true})
			if err != nil {
				b.Fatal(err)
			}
			var elapsed time.Duration
			var edges int64
			for i := 0; i < b.N; i++ {
				eng, err := shared.NewEngine(EngineSpMV)
				if err != nil {
					b.Fatal(err)
				}
				st, err := eng.Run(&sweepPush{})
				if err != nil {
					b.Fatal(err)
				}
				elapsed += st.Elapsed
				edges += int64(st.Iterations) * img.NumEdges
			}
			b.ReportMetric(float64(elapsed)/float64(edges), "ns/edge")
		})
	}
}
