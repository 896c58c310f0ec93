package algo

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/core"
	"flashgraph/internal/csr"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// testGraph bundles a graph in all representations the tests need.
type testGraph struct {
	adj *graph.Adjacency
	img *graph.Image
	ref *csr.Graph
}

func makeGraph(t *testing.T, edges []graph.Edge, n int, directed bool, attrSize int, attr graph.AttrFunc) *testGraph {
	t.Helper()
	a := graph.FromEdges(n, edges, directed)
	a.Dedup()
	return &testGraph{adj: a, img: graph.BuildImage(a, attrSize, attr), ref: csr.FromAdjacency(a)}
}

func rmatGraph(t *testing.T, scale, epv int, seed uint64, directed bool) *testGraph {
	t.Helper()
	return makeGraph(t, gen.RMAT(scale, epv, seed), 1<<scale, directed, 0, nil)
}

// engines returns a SEM engine and an in-memory engine over the image.
func engines(t *testing.T, img *graph.Image) map[string]*core.Engine {
	return enginesAt(t, img, 4)
}

// enginesAt is engines with the given worker count.
func enginesAt(t *testing.T, img *graph.Image, threads int) map[string]*core.Engine {
	t.Helper()
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 32 * 4096})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 4 << 20})
	sem, err := core.NewEngine(img, core.Config{Threads: threads, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.NewEngine(img, core.Config{Threads: threads, InMemory: true, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Engine{"sem": sem, "mem": mem}
}

// forEachRun runs a fresh program from mk on both engines at 1, 2 and 8
// threads, hands each to check, and requires every run's ResultSet
// checksum to be the first one's: the answer must not depend on the
// worker count or on the engine's I/O path.
func forEachRun[P interface {
	core.Algorithm
	core.ResultProducer
}](t *testing.T, img *graph.Image, mk func() P, check func(name string, p P)) {
	t.Helper()
	var first, firstName string
	for _, threads := range []int{1, 2, 8} {
		for name, eng := range enginesAt(t, img, threads) {
			name = fmt.Sprintf("%s/T%d", name, threads)
			p := mk()
			if _, err := eng.Run(p); err != nil {
				t.Fatal(err)
			}
			check(name, p)
			sum := p.Result().Checksum()
			if first == "" {
				first, firstName = sum, name
			} else if sum != first {
				t.Fatalf("%s: checksum %s, %s gave %s", name, sum, firstName, first)
			}
		}
	}
}

func TestBFSMatchesOracle(t *testing.T) {
	g := rmatGraph(t, 10, 8, 1, true)
	want := galois.BFS(g.ref, 0)
	for name, eng := range engines(t, g.img) {
		bfs := NewBFS(0)
		if _, err := eng.Run(bfs); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if bfs.Level[v] != want[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", name, v, bfs.Level[v], want[v])
			}
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := makeGraph(t, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, 4, true, 0, nil)
	for name, eng := range engines(t, g.img) {
		bfs := NewBFS(0)
		if _, err := eng.Run(bfs); err != nil {
			t.Fatal(err)
		}
		if bfs.Level[2] != -1 || bfs.Level[3] != -1 {
			t.Fatalf("%s: unreachable got levels %v", name, bfs.Level)
		}
		if bfs.Reached() != 2 {
			t.Fatalf("%s: reached = %d, want 2", name, bfs.Reached())
		}
	}
}

func TestBFSUndirectedSweep(t *testing.T) {
	// 0 -> 1 <- 2: directed BFS from 0 reaches {0,1}; undirected
	// expansion also reaches 2, reading both lists of every vertex (it
	// never reads bottom-up).
	g := makeGraph(t, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}, 3, true, 0, nil)
	for name, eng := range engines(t, g.img) {
		bfs := &BFS{Src: 0, Undirected: true}
		st, err := eng.Run(bfs)
		if err != nil {
			t.Fatal(err)
		}
		if bfs.Level[2] != 2 || st.EdgeRequests != 6 {
			t.Fatalf("%s: undirected BFS level[2] = %d, want 2; %d edge requests, want 6", name, bfs.Level[2], st.EdgeRequests)
		}
	}
}

func TestPageRankMatchesOracle(t *testing.T) {
	g := rmatGraph(t, 10, 8, 2, true)
	want := galois.PageRankDelta(g.ref, 30, 0.85, 1e-7)
	for name, eng := range engines(t, g.img) {
		pr := NewPageRank()
		if _, err := eng.Run(pr); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Abs(pr.Scores[v]-want[v]) > 1e-6*(1+want[v]) {
				t.Fatalf("%s: pr[%d] = %v, want %v", name, v, pr.Scores[v], want[v])
			}
		}
	}
}

func TestPageRankIterationCap(t *testing.T) {
	g := rmatGraph(t, 9, 8, 3, true)
	eng := engines(t, g.img)["mem"]
	pr := NewPageRank()
	st, err := eng.Run(pr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 30 {
		t.Fatalf("iterations = %d, want <= 30", st.Iterations)
	}
}

func TestWCCMatchesOracle(t *testing.T) {
	// Several components: union a few RMAT blocks shifted apart.
	var edges []graph.Edge
	for b := 0; b < 4; b++ {
		for _, e := range gen.RMAT(7, 4, uint64(b+10)) {
			off := graph.VertexID(b << 7)
			edges = append(edges, graph.Edge{Src: e.Src + off, Dst: e.Dst + off})
		}
	}
	g := makeGraph(t, edges, 4<<7, true, 0, nil)
	want := galois.WCC(g.ref)
	for name, eng := range engines(t, g.img) {
		wcc := NewWCC()
		if _, err := eng.Run(wcc); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if wcc.Labels[v] != want[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", name, v, wcc.Labels[v], want[v])
			}
		}
		if wcc.NumComponents() < 4 {
			t.Fatalf("%s: components = %d, want >= 4", name, wcc.NumComponents())
		}
	}
}

func TestBCMatchesOracle(t *testing.T) {
	g := rmatGraph(t, 9, 6, 4, true)
	want := galois.BC(g.ref, 0)
	forEachRun(t, g.img, func() *BC { return NewBC(0) }, func(name string, bc *BC) {
		for v := range want {
			if math.Abs(bc.Centrality[v]-want[v]) > 1e-6*(1+want[v]) {
				t.Fatalf("%s: bc[%d] = %v, want %v", name, v, bc.Centrality[v], want[v])
			}
		}
	})
}

func TestBCPath(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	g := makeGraph(t, edges, 4, true, 0, nil)
	eng := engines(t, g.img)["mem"]
	bc := NewBC(0)
	if _, err := eng.Run(bc); err != nil {
		t.Fatal(err)
	}
	// On a path from 0: bc[1] = 2 (lies on 0->2, 0->3), bc[2] = 1.
	if bc.Centrality[1] != 2 || bc.Centrality[2] != 1 || bc.Centrality[3] != 0 {
		t.Fatalf("bc = %v", bc.Centrality)
	}
}

// scanOf is v's locality statistic computed directly from the CSR: its
// undirected degree plus the edges among its neighbours.
func scanOf(g *csr.Graph, v graph.VertexID) int64 {
	nv := g.Neighbors(v, nil)
	var among int64
	for _, u := range nv {
		for _, w := range g.Neighbors(u, nil) {
			if _, ok := slices.BinarySearch(nv, w); ok {
				among++
			}
		}
	}
	return int64(len(nv)) + among/2
}

// nbrhoodTable is the oracle table for triangle counting and scan
// statistics: one R-MAT graph per direction, run raw and delta, in memory
// and SEM, at 1, 3 and 8 threads. check sees every engine row in turn.
func nbrhoodTable(t *testing.T, directed bool, check func(name string, eng *core.Engine, ref *csr.Graph)) {
	t.Helper()
	a := graph.FromEdges(1<<9, gen.RMAT(9, 8, 7), directed)
	a.Dedup()
	ref := csr.FromAdjacency(a)
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta} {
		img := buildImage(t, a, enc)
		for _, threads := range []int{1, 3, 8} {
			for _, mem := range []bool{true, false} {
				c := bfsConfig{enc: enc, mem: mem, threads: threads}
				check(fmt.Sprintf("directed=%v/%s", directed, c), c.engine(t, img), ref)
			}
		}
	}
}

// checkTCTable runs TC at each part size on every row of the table and
// checks Total and PerVertex against galois, with the corners' counts
// summed per target (RunOnSums) and, if bothPaths, also one message at
// a time behind a wrapper that hides core.SumReceiver.
func checkTCTable(t *testing.T, directed, bothPaths bool, partSizes ...int) {
	t.Helper()
	deliveries := []bool{false}
	if bothPaths {
		deliveries = append(deliveries, true)
	}
	nbrhoodTable(t, directed, func(name string, eng *core.Engine, ref *csr.Graph) {
		wantTotal, wantPer := galois.TriangleCount(ref)
		for _, partSize := range partSizes {
			for _, perMessage := range deliveries {
				tc := NewTC()
				tc.PartSize = partSize
				var alg core.Algorithm = tc
				if perMessage {
					alg = struct {
						core.Algorithm
						core.VerticallyPartitioned
					}{tc, tc}
				}
				if _, err := eng.Run(alg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if tc.Total != wantTotal {
					t.Fatalf("%s PartSize=%d per-message=%v: total = %d, want %d", name, partSize, perMessage, tc.Total, wantTotal)
				}
				for v := range wantPer {
					if tc.PerVertex[v] != wantPer[v] {
						t.Fatalf("%s PartSize=%d per-message=%v: per[%d] = %d, want %d", name, partSize, perMessage, v, tc.PerVertex[v], wantPer[v])
					}
				}
			}
		}
	})
}

func TestTCMatchesOracleDirected(t *testing.T) {
	checkTCTable(t, true, true, NewTC().PartSize)
}

func TestTCMatchesOracleUndirected(t *testing.T) {
	checkTCTable(t, false, true, NewTC().PartSize)
}

// TestTCVerticalPartitioningAgrees: with vertical partitioning off and
// fine (16 vertices a part), TC still gives galois's answers.
func TestTCVerticalPartitioningAgrees(t *testing.T) {
	for _, directed := range []bool{true, false} {
		checkTCTable(t, directed, false, 0, 16)
	}
}

// TestScanStatMatchesOracle: scan statistics' Max is galois's on every
// row of the table, and ArgMax's own scan, computed from the CSR, is Max.
func TestScanStatMatchesOracle(t *testing.T) {
	for _, directed := range []bool{true, false} {
		nbrhoodTable(t, directed, func(name string, eng *core.Engine, ref *csr.Graph) {
			wantMax, _ := galois.ScanStat(ref)
			ss := NewScanStat()
			if _, err := eng.Run(ss); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ss.Max != wantMax {
				t.Fatalf("%s: scan max = %d, want %d", name, ss.Max, wantMax)
			}
			if got := scanOf(ref, ss.ArgMax); got != ss.Max {
				t.Fatalf("%s: argmax %d has scan %d, max is %d", name, ss.ArgMax, got, ss.Max)
			}
		})
	}
}

// TestScanStatChecksumIgnoresThreads: scan statistics' result is a
// function of the image alone. How many vertices pruning skips races
// across workers, but the checksum is the same at every thread count,
// run after run.
func TestScanStatChecksumIgnoresThreads(t *testing.T) {
	g := rmatGraph(t, 12, 8, 3, true)
	want := ""
	for _, threads := range []int{1, 4, 8} {
		eng, err := core.NewEngine(g.img, core.Config{Threads: threads, InMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 5; run++ {
			ss := NewScanStat()
			if _, err := eng.Run(ss); err != nil {
				t.Fatal(err)
			}
			got := ss.Result().Checksum()
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("T%d run %d: checksum %s, first run %s (max %d at %d, %d computed)",
					threads, run, got, want, ss.Max, ss.ArgMax, ss.Computed)
			}
		}
	}
}

func TestScanStatSchedulerPrunes(t *testing.T) {
	// The program's degree-descending order needs no Config.Sched: most
	// vertices of a power-law graph must be skipped.
	g := rmatGraph(t, 10, 8, 9, true)
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 32 * 4096})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 8 << 20})
	// MaxRunning small enough that later batches observe the maximum
	// established by the early (large-degree) batches — the pruning only
	// kicks in across batches.
	eng, err := core.NewEngine(g.img, core.Config{
		Threads: 4, FS: fs, RangeShift: 4, MaxRunning: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := NewScanStat()
	if _, err := eng.Run(ss); err != nil {
		t.Fatal(err)
	}
	wantMax, _ := galois.ScanStat(g.ref)
	if ss.Max != wantMax {
		t.Fatalf("scan max = %d, want %d", ss.Max, wantMax)
	}
	if ss.Skipped == 0 {
		t.Fatal("degree-ordered scan statistics should skip vertices")
	}
	if ss.Computed+ss.Skipped == 0 || ss.Skipped < ss.Computed {
		t.Fatalf("expected mostly skips: computed=%d skipped=%d", ss.Computed, ss.Skipped)
	}
}

func TestKCoreMatchesOracle(t *testing.T) {
	g := makeGraph(t, gen.RMAT(9, 6, 10), 1<<9, false, 0, nil)
	for _, k := range []int{2, 3, 5} {
		want := galois.KCore(g.ref, k)
		for name, eng := range engines(t, g.img) {
			kc := NewKCore(k)
			if _, err := eng.Run(kc); err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if kc.Alive[v] != want[v] {
					t.Fatalf("%s k=%d: alive[%d] = %v, want %v", name, k, v, kc.Alive[v], want[v])
				}
			}
		}
	}
}

// weightAttr derives a deterministic positive weight from the edge.
func weightAttr(src, dst graph.VertexID, buf []byte) {
	w := (uint32(src)*2654435761 ^ uint32(dst)*40503) % 1000
	binary.LittleEndian.PutUint32(buf, w+1)
}

func TestSSSPMatchesOracle(t *testing.T) {
	edges := gen.RMAT(9, 6, 11)
	a := graph.FromEdges(1<<9, edges, true)
	a.Dedup()
	img := graph.BuildImage(a, 4, weightAttr)
	ref := csr.FromAdjacency(a)
	want := galois.SSSP(ref, 0, func(v graph.VertexID, i int) uint32 {
		var buf [4]byte
		weightAttr(v, ref.Out(v)[i], buf[:])
		return binary.LittleEndian.Uint32(buf[:])
	})
	for name, eng := range engines(t, img) {
		sp := NewSSSP(0)
		if _, err := eng.Run(sp); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			got := sp.Dist[v]
			if want[v] == ^uint64(0) {
				if got != Unreachable {
					t.Fatalf("%s: dist[%d] = %d, want unreachable", name, v, got)
				}
				continue
			}
			if got != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", name, v, got, want[v])
			}
		}
	}
}

// TestPPRMatchesOracle checks weighted personalized PageRank against
// the dense delta-push oracle, on both the SEM and in-memory engines.
func TestPPRMatchesOracle(t *testing.T) {
	edges := gen.RMAT(9, 6, 13)
	a := graph.FromEdges(1<<9, edges, true)
	a.Dedup()
	img := graph.BuildImage(a, 4, weightAttr)
	ref := csr.FromAdjacency(a)
	weight := func(v graph.VertexID, i int) uint32 {
		var buf [4]byte
		weightAttr(v, ref.Out(v)[i], buf[:])
		return binary.LittleEndian.Uint32(buf[:])
	}
	const src = 3
	want := galois.PPRDelta(ref, src, 30, 0.85, 1e-9, weight)
	forEachRun(t, img, func() *PPR { return NewPPR(src) }, func(name string, ppr *PPR) {
		for v := range want {
			if math.Abs(ppr.Scores[v]-want[v]) > 1e-8*(1+want[v]) {
				t.Fatalf("%s: ppr[%d] = %v, want %v", name, v, ppr.Scores[v], want[v])
			}
		}
		// Restart mass concentrates at the source; total mass never
		// exceeds 1 (dangling vertices drop theirs).
		var sum float64
		for _, s := range ppr.Scores {
			sum += s
		}
		if sum > 1+1e-9 || ppr.Scores[src] < (1-ppr.Damping)-1e-12 {
			t.Fatalf("%s: mass sum %v, score[src] %v", name, sum, ppr.Scores[src])
		}
	})
}

// TestPPRUnweightedFallsBackUniform runs PPR on an image without edge
// attributes: shares must be uniform (matching the nil-weight oracle).
func TestPPRUnweightedFallsBackUniform(t *testing.T) {
	g := rmatGraph(t, 9, 6, 14, true)
	want := galois.PPRDelta(g.ref, 0, 30, 0.85, 1e-9, nil)
	forEachRun(t, g.img, func() *PPR { return NewPPR(0) }, func(name string, ppr *PPR) {
		for v := range want {
			if math.Abs(ppr.Scores[v]-want[v]) > 1e-8*(1+want[v]) {
				t.Fatalf("%s: ppr[%d] = %v, want %v", name, v, ppr.Scores[v], want[v])
			}
		}
	})
}

func TestAlgorithmsReportState(t *testing.T) {
	g := rmatGraph(t, 8, 4, 12, true)
	eng := engines(t, g.img)["mem"]
	algs := []core.Algorithm{NewBFS(0), NewPageRank(), NewWCC(), NewBC(0), NewTC(), NewScanStat()}
	for _, alg := range algs {
		if _, err := eng.Run(alg); err != nil {
			t.Fatal(err)
		}
		if ss, ok := alg.(core.StateSized); !ok || ss.StateBytes() <= 0 {
			t.Fatalf("%T must report positive state bytes", alg)
		}
	}
}
