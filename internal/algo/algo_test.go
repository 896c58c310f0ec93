package algo

import (
	"encoding/binary"
	"math"
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
	t.Helper()
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 32 * 4096})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 4 << 20})
	sem, err := core.NewEngine(img, core.Config{Threads: 4, FS: fs, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.NewEngine(img, core.Config{Threads: 4, InMemory: true, RangeShift: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Engine{"sem": sem, "mem": mem}
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
	for name, eng := range engines(t, g.img) {
		bc := NewBC(0)
		if _, err := eng.Run(bc); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Abs(bc.Centrality[v]-want[v]) > 1e-6*(1+want[v]) {
				t.Fatalf("%s: bc[%d] = %v, want %v", name, v, bc.Centrality[v], want[v])
			}
		}
	}
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

func TestTCMatchesOracleDirected(t *testing.T) {
	g := rmatGraph(t, 8, 6, 5, true)
	wantTotal, wantPer := galois.TriangleCount(g.ref)
	for name, eng := range engines(t, g.img) {
		tc := NewTC()
		if _, err := eng.Run(tc); err != nil {
			t.Fatal(err)
		}
		if tc.Total != wantTotal {
			t.Fatalf("%s: total = %d, want %d", name, tc.Total, wantTotal)
		}
		for v := range wantPer {
			if tc.PerVertex[v] != wantPer[v] {
				t.Fatalf("%s: per[%d] = %d, want %d", name, v, tc.PerVertex[v], wantPer[v])
			}
		}
	}
}

func TestTCMatchesOracleUndirected(t *testing.T) {
	g := makeGraph(t, gen.RMAT(8, 5, 6), 1<<8, false, 0, nil)
	wantTotal, _ := galois.TriangleCount(g.ref)
	for name, eng := range engines(t, g.img) {
		tc := NewTC()
		if _, err := eng.Run(tc); err != nil {
			t.Fatal(err)
		}
		if tc.Total != wantTotal {
			t.Fatalf("%s: total = %d, want %d", name, tc.Total, wantTotal)
		}
	}
}

func TestTCVerticalPartitioningAgrees(t *testing.T) {
	g := rmatGraph(t, 9, 8, 7, true)
	wantTotal, _ := galois.TriangleCount(g.ref)
	eng := engines(t, g.img)["sem"]
	for _, partSize := range []int{0, 16, 256} {
		tc := NewTC()
		tc.PartSize = partSize
		if _, err := eng.Run(tc); err != nil {
			t.Fatal(err)
		}
		if tc.Total != wantTotal {
			t.Fatalf("PartSize=%d: total = %d, want %d", partSize, tc.Total, wantTotal)
		}
	}
}

func TestScanStatMatchesOracle(t *testing.T) {
	g := rmatGraph(t, 8, 6, 8, true)
	wantMax, _ := galois.ScanStat(g.ref)
	for name, eng := range engines(t, g.img) {
		ss := NewScanStat()
		semCfg := eng // engines are preconfigured; scheduler set below
		_ = semCfg
		if _, err := eng.Run(ss); err != nil {
			t.Fatal(err)
		}
		if ss.Max != wantMax {
			t.Fatalf("%s: scan max = %d, want %d", name, ss.Max, wantMax)
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
	for name, eng := range engines(t, img) {
		ppr := NewPPR(src)
		if _, err := eng.Run(ppr); err != nil {
			t.Fatal(err)
		}
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
	}
}

// TestPPRUnweightedFallsBackUniform runs PPR on an image without edge
// attributes: shares must be uniform (matching the nil-weight oracle).
func TestPPRUnweightedFallsBackUniform(t *testing.T) {
	g := rmatGraph(t, 9, 6, 14, true)
	want := galois.PPRDelta(g.ref, 0, 30, 0.85, 1e-9, nil)
	eng := engines(t, g.img)["mem"]
	ppr := NewPPR(0)
	if _, err := eng.Run(ppr); err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(ppr.Scores[v]-want[v]) > 1e-8*(1+want[v]) {
			t.Fatalf("ppr[%d] = %v, want %v", v, ppr.Scores[v], want[v])
		}
	}
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
