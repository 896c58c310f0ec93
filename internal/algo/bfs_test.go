package algo

import (
	"fmt"
	"testing"

	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/core"
	"flashgraph/internal/csr"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// bfsModel is what BFS reads from one source, computed from the oracle's
// levels and the image's index rather than by running the engine: per
// level the planner's rule (bottom-up iff some unvisited vertex has
// in-edges and their in-records are fewer bytes than the next frontier's
// out-records) against reading every level top-down.
type bfsModel struct {
	levels, bottomUp    int   // levels (= engine iterations), of them read bottom-up
	requests, topDown   int64 // edge lists read: planner, all top-down
	bytes, topDownBytes int64 // record bytes read
	pages, topDownPages int64 // distinct 4 KiB pages touched, summed over levels
	perLevel            []string
}

func modelBFS(img *graph.Image, level []int32, src graph.VertexID) bfsModel {
	outIx, inIx := img.OutIndex, img.InIndex
	if inIx == nil {
		inIx = outIx
	}
	var unseen int64
	maxLevel := int32(0)
	for v, l := range level {
		if u := graph.VertexID(v); u != src && inIx.Degree(u) > 0 {
			unseen += inIx.RecordBytes(u)
		}
		maxLevel = max(maxLevel, l)
	}
	srcBytes, srcPages := outIx.RecordBytes(src), pagesOf(outIx, []graph.VertexID{src})
	m := bfsModel{levels: 1, requests: 1, topDown: 1,
		bytes: srcBytes, topDownBytes: srcBytes, pages: srcPages, topDownPages: srcPages}
	for d := int32(0); d < maxLevel; d++ {
		var next, unvisited []graph.VertexID
		var nextOut int64
		for v, l := range level {
			u := graph.VertexID(v)
			if l == d+1 {
				next = append(next, u)
				nextOut += outIx.RecordBytes(u)
				unseen -= inIx.RecordBytes(u)
			} else if (l < 0 || l > d+1) && inIx.Degree(u) > 0 {
				unvisited = append(unvisited, u)
			}
		}
		tdPages := pagesOf(outIx, next)
		m.levels++
		m.topDown += int64(len(next))
		m.topDownBytes += nextOut
		m.topDownPages += tdPages
		dir := "top-down"
		if unseen > 0 && unseen < nextOut {
			dir = "bottom-up"
			m.bottomUp++
			m.requests += int64(len(unvisited))
			m.bytes += unseen
			m.pages += pagesOf(inIx, unvisited)
		} else {
			m.requests += int64(len(next))
			m.bytes += nextOut
			m.pages += tdPages
		}
		m.perLevel = append(m.perLevel, fmt.Sprintf("level %d: frontier %d lists %d B, unvisited %d lists %d B → %s",
			d+1, len(next), nextOut, len(unvisited), unseen, dir))
	}
	return m
}

// pagesOf counts the distinct 4 KiB pages the records of vs touch.
func pagesOf(ix *graph.Index, vs []graph.VertexID) int64 {
	const page = 4096
	seen := map[int64]bool{}
	for _, v := range vs {
		off, size := ix.Locate(v)
		for p := off / page; p <= (off+max(size, 1)-1)/page; p++ {
			seen[p] = true
		}
	}
	return int64(len(seen))
}

// bfsGraph is one graph of the direction-switch tests.
type bfsGraph struct {
	name     string
	adj      *graph.Adjacency
	src      graph.VertexID
	switches bool // the planner reads some level bottom-up
}

func bfsGraphs() []bfsGraph {
	adj := func(n int, edges []graph.Edge, directed bool) *graph.Adjacency {
		a := graph.FromEdges(n, edges, directed)
		a.Dedup()
		return a
	}
	// Two R-MAT blocks with no edge between them: BFS from block A never
	// reaches block B, whose vertices all have in-edges, so every
	// bottom-up level reads B's in-lists too.
	split := gen.RMAT(12, 8, 23)
	for _, e := range gen.RMAT(10, 8, 24) {
		split = append(split, graph.Edge{Src: e.Src + 1<<12, Dst: e.Dst + 1<<12})
	}
	var path []graph.Edge
	for v := graph.VertexID(0); v < 511; v++ {
		path = append(path, graph.Edge{Src: v, Dst: v + 1})
	}
	return []bfsGraph{
		{"rmat14", adj(1<<14, gen.RMAT(14, 8, 21), true), 0, true},
		{"undirected", adj(1<<12, gen.RMAT(12, 8, 22), false), 0, true},
		{"unreachable-in-edges", adj(1<<12+1<<10, split, true), 0, true},
		{"path", adj(512, path, true), 0, false},
	}
}

// bfsConfig is one engine configuration of the differential matrix.
type bfsConfig struct {
	enc     graph.Encoding
	mem     bool
	threads int
	merge   core.MergeMode
}

func (c bfsConfig) String() string {
	if c.mem {
		return fmt.Sprintf("%s/mem/T%d", c.enc, c.threads)
	}
	return fmt.Sprintf("%s/sem/T%d/%s", c.enc, c.threads, [...]string{"merge-FG", "merge-SAFS", "merge-none"}[c.merge])
}

// bfsConfigs is the matrix over one encoding: in-memory and SEM (in
// each merge mode) at 1, 2, 3 and 8 threads.
func bfsConfigs(enc graph.Encoding) []bfsConfig {
	var cs []bfsConfig
	for _, threads := range []int{1, 2, 3, 8} {
		cs = append(cs, bfsConfig{enc: enc, mem: true, threads: threads})
		for _, merge := range []core.MergeMode{core.MergeFG, core.MergeSAFS, core.MergeNone} {
			cs = append(cs, bfsConfig{enc: enc, threads: threads, merge: merge})
		}
	}
	return cs
}

func (c bfsConfig) engine(t *testing.T, img *graph.Image) *core.Engine {
	t.Helper()
	cfg := core.Config{Threads: c.threads, RangeShift: 4, InMemory: c.mem, Merge: c.merge}
	if !c.mem {
		arr := ssd.NewArray(ssd.ArrayParams{Devices: 2, StripeSize: 16 * 4096})
		t.Cleanup(arr.Close)
		cfg.FS = safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	}
	eng, err := core.NewEngine(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func buildImage(t *testing.T, a *graph.Adjacency, enc graph.Encoding) *graph.Image {
	t.Helper()
	img, err := writerFor(a, enc).BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestBFSDirectionDifferential: on every engine configuration, the
// direction-optimizing BFS gives galois.BFS's levels, takes one
// iteration per level, and reads exactly the edge lists the byte model
// predicts. On the path the planner never switches, and the run reads
// what top-down BFS reads.
func TestBFSDirectionDifferential(t *testing.T) {
	for _, g := range bfsGraphs() {
		want := galois.BFS(csr.FromAdjacency(g.adj), g.src)
		for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta} {
			img := buildImage(t, g.adj, enc)
			m := modelBFS(img, want, g.src)
			if g.switches != (m.bottomUp > 0) || !g.switches && m.requests != m.topDown {
				t.Fatalf("%s/%s: model reads %d of %d levels bottom-up, %d lists against top-down %d",
					g.name, enc, m.bottomUp, m.levels, m.requests, m.topDown)
			}
			for _, c := range bfsConfigs(enc) {
				bfs := NewBFS(g.src)
				st, err := c.engine(t, img).Run(bfs)
				if err != nil {
					t.Fatalf("%s/%s: %v", g.name, c, err)
				}
				for v := range want {
					if bfs.Level[v] != want[v] {
						t.Fatalf("%s/%s: level[%d] = %d, want %d", g.name, c, v, bfs.Level[v], want[v])
					}
				}
				if st.Iterations != m.levels || st.EdgeRequests != m.requests {
					t.Fatalf("%s/%s: %d iterations, %d edge requests; model %d levels, %d lists",
						g.name, c, st.Iterations, st.EdgeRequests, m.levels, m.requests)
				}
			}
		}
	}
}

// TestBFSByteModel pins the planner to its byte model on a scale-14
// R-MAT: the run reads exactly the edge lists the rule picks from the
// oracle's levels, and the model's record bytes and pages are logged
// against all-top-down BFS.
func TestBFSByteModel(t *testing.T) {
	g := bfsGraphs()[0]
	ref := csr.FromAdjacency(g.adj)
	img := buildImage(t, g.adj, graph.EncodingRaw)
	eng := bfsConfig{enc: graph.EncodingRaw, threads: 4, merge: core.MergeFG}.engine(t, img)
	var total, td bfsModel
	for _, src := range []graph.VertexID{0, 1, 7, 100, 5000} {
		m := modelBFS(img, galois.BFS(ref, src), src)
		st, err := eng.Run(NewBFS(src))
		if err != nil {
			t.Fatal(err)
		}
		if st.EdgeRequests != m.requests || st.Iterations != m.levels {
			t.Fatalf("src %d: %d edge requests in %d iterations; model %d lists in %d levels",
				src, st.EdgeRequests, st.Iterations, m.requests, m.levels)
		}
		for _, l := range m.perLevel {
			t.Logf("src %d %s", src, l)
		}
		total.levels += m.levels
		total.bottomUp += m.bottomUp
		total.requests += m.requests
		total.bytes += m.bytes
		total.pages += m.pages
		td.requests += m.topDown
		td.bytes += m.topDownBytes
		td.pages += m.topDownPages
	}
	t.Logf("top-down: %d lists, %d record bytes, %d pages", td.requests, td.bytes, td.pages)
	t.Logf("planner:  %d lists, %d record bytes (%.1f%% fewer), %d pages (%.1f%% fewer); %d of %d levels bottom-up",
		total.requests, total.bytes, 100*(1-float64(total.bytes)/float64(td.bytes)),
		total.pages, 100*(1-float64(total.pages)/float64(td.pages)), total.bottomUp, total.levels)
	if total.bottomUp == 0 || total.bytes >= td.bytes {
		t.Fatal("the planner never read a level bottom-up on R-MAT")
	}
}

// hookedBFS adds an iteration-end hook by embedding the program, the way
// a harness timestamps iterations. Its OnIterationEnd would shadow one
// the program had; RunOnIterationEnd is promoted unchanged.
type hookedBFS struct {
	*BFS
	ticks *int
}

func (h hookedBFS) OnIterationEnd(*core.Engine) { *h.ticks++ }

// TestBFSPlannerSurvivesHookShadowing: wrapped that way, BFS still reads
// levels bottom-up and still gives the oracle's answer.
func TestBFSPlannerSurvivesHookShadowing(t *testing.T) {
	g := bfsGraphs()[0]
	img := buildImage(t, g.adj, graph.EncodingRaw)
	want := galois.BFS(csr.FromAdjacency(g.adj), g.src)
	bfs, ticks := NewBFS(g.src), 0
	st, err := bfsConfig{enc: graph.EncodingRaw, threads: 2, merge: core.MergeFG}.engine(t, img).Run(hookedBFS{bfs, &ticks})
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeRequests >= bfs.Reached() {
		t.Fatalf("%d edge requests, top-down reads %d: the planner did not run", st.EdgeRequests, bfs.Reached())
	}
	if ticks != st.Iterations {
		t.Fatalf("hook ran %d times in %d iterations", ticks, st.Iterations)
	}
	if got, ref := bfs.Result().Checksum(), (&BFS{Level: want}).Result().Checksum(); got != ref {
		t.Fatalf("checksum %s, oracle %s", got, ref)
	}
}
