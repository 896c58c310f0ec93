package flashgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/csr"
	"flashgraph/internal/graph"
)

func TestQuickstartFlow(t *testing.T) {
	g := NewGraph(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, Directed)
	eng, err := Open(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bfs := NewBFS(0)
	st, err := eng.Run(bfs)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range []int32{0, 1, 2, 3} {
		if bfs.Level[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, bfs.Level[v], want)
		}
	}
	if st.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", st.Iterations)
	}
}

func TestInMemoryOption(t *testing.T) {
	g := NewGraph(1<<8, GenerateRMAT(8, 4, 1), Directed)
	eng, err := Open(g, Options{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pr := NewPageRank()
	st, err := eng.Run(pr)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeviceReads != 0 {
		t.Fatal("in-memory engine must not touch devices")
	}
	if len(pr.Scores) != g.NumVertices() {
		t.Fatal("missing scores")
	}
}

func TestGraphMetadata(t *testing.T) {
	g := NewGraph(100, GenerateRMAT(6, 4, 2)[:200], Directed)
	if g.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.SizeBytes() == 0 || g.IndexBytes() == 0 {
		t.Fatal("zero metadata")
	}
	if !g.Directed() {
		t.Fatal("directedness lost")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := NewGraph(1<<7, GenerateRMAT(7, 4, 3), Directed)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip metadata mismatch")
	}
	// Both must produce identical BFS results.
	run := func(gr *Graph) []int32 {
		eng, err := Open(gr, Options{InMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		bfs := NewBFS(0)
		if _, err := eng.Run(bfs); err != nil {
			t.Fatal(err)
		}
		return bfs.Level
	}
	a, b := run(g), run(g2)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("BFS differs at %d after round trip", v)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.fg")
	g := NewGraph(64, GenerateRMAT(6, 4, 4), Directed)
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("file round trip mismatch")
	}
}

func TestWeightedGraphSSSP(t *testing.T) {
	attr := func(src, dst VertexID, buf []byte) {
		buf[0], buf[1], buf[2], buf[3] = 1, 0, 0, 0 // weight 1
	}
	g := NewWeightedGraph(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, Directed, attr)
	eng, err := Open(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sp := NewSSSP(0)
	if _, err := eng.Run(sp); err != nil {
		t.Fatal(err)
	}
	if sp.Dist[2] != 2 {
		t.Fatalf("dist[2] = %d, want 2", sp.Dist[2])
	}
}

// TestAdvancedEngineConfig: scan statistics needs no engine configuration
// from its caller. With plain Options the run uses the program's own
// degree-descending schedule and small window, so the long tail is pruned
// without I/O — under a by-ID order nearly every neighbourhood is computed.
func TestAdvancedEngineConfig(t *testing.T) {
	g := NewGraph(1<<12, GenerateRMAT(12, 8, 5), Directed)
	eng, err := Open(g, Options{CacheBytes: 1 << 20, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ss := NewScanStat()
	if _, err := eng.Run(ss); err != nil {
		t.Fatal(err)
	}
	if ss.Max <= 0 {
		t.Fatalf("scan max = %d", ss.Max)
	}
	// One window of 512 establishes the bar; the rest of the 4096 prune.
	if ss.Computed > 1024 || ss.Skipped < 2*ss.Computed {
		t.Fatalf("computed %d neighbourhoods, pruned %d: the program's schedule was not used", ss.Computed, ss.Skipped)
	}
}

// TestOpenRequiresFSOrMemory: Open with zero Options builds its own
// substrate (array, SAFS, cache) — a run reaches the devices.
func TestOpenRequiresFSOrMemory(t *testing.T) {
	g := NewGraph(16, []Edge{{Src: 0, Dst: 1}}, Directed)
	eng, err := Open(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shared().FS() == nil {
		t.Fatal("semi-external engine opened without a SAFS instance")
	}
	if st, err := eng.Run(NewBFS(0)); err != nil || st.DeviceReads == 0 {
		t.Fatalf("run on the built substrate: %d device reads, err %v", st.DeviceReads, err)
	}
}

// TestConcurrentAndSerialRuns: every Run is a fresh run context, so eight
// overlapping calls and serial calls interleaved with them all produce the
// oracle's checksum over one shared cache (run with -race in CI).
func TestConcurrentAndSerialRuns(t *testing.T) {
	const scale = 9
	edges := GenerateRMAT(scale, 6, 11)
	g := NewGraph(1<<scale, edges, Directed)
	adj := graph.FromEdges(1<<scale, edges, true)
	adj.Dedup()
	ref := csr.FromAdjacency(adj)
	want := func(src VertexID) string {
		levels := galois.BFS(ref, src)
		reached := 0
		for _, l := range levels {
			if l >= 0 {
				reached++
			}
		}
		rs := NewResultSet("bfs")
		rs.AddScalar("reached", reached)
		rs.AddInt32("level", levels).WithSentinel(int32(-1))
		return rs.Checksum()
	}
	eng, err := Open(g, Options{Threads: 2, CacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	check := func(src VertexID) {
		bfs := NewBFS(src)
		if _, err := eng.Run(bfs); err != nil {
			t.Errorf("bfs from %d: %v", src, err)
		} else if got := bfs.Result().Checksum(); got != want(src) {
			t.Errorf("bfs from %d: checksum %s, oracle %s", src, got, want(src))
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(VertexID(i * 37))
		}()
		check(VertexID(i)) // a serial caller, overlapping the ones in flight
	}
	wg.Wait()
}

func TestParseEdgeListPublic(t *testing.T) {
	edges, n, err := ParseEdgeList(bytes.NewBufferString("0 1\n1 2\n"))
	if err != nil || n != 3 || len(edges) != 2 {
		t.Fatalf("parse: %v %d %v", edges, n, err)
	}
}

func TestGenerateClusteredPublic(t *testing.T) {
	edges := GenerateClustered(10, 20, 4, 1)
	if len(edges) != 10*20*4 {
		t.Fatalf("edges = %d", len(edges))
	}
	g := NewGraph(200, edges, Directed)
	eng, err := Open(g, Options{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	wcc := NewWCC()
	if _, err := eng.Run(wcc); err != nil {
		t.Fatal(err)
	}
}

// TestCloseIdempotent is the regression test for double-Close: an
// engine (SEM or in-memory) must release what it owns exactly once and
// tolerate repeated Close calls without panicking.
func TestCloseIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sem", Options{}},
		{"in-memory", Options{InMemory: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(1<<6, GenerateRMAT(6, 4, 3), Directed)
			eng, err := Open(g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(NewBFS(0)); err != nil {
				t.Fatal(err)
			}
			eng.Close()
			eng.Close() // must not panic or double-release
			eng.Close()
			// Later Runs fail explicitly instead of using released state.
			if _, err := eng.Run(NewBFS(0)); err == nil {
				t.Fatal("Run after Close succeeded")
			}
		})
	}
}

// TestLoadTimeDuration pins the LoadTime signature fix: a
// time.Duration, non-negative, and zero only plausibly (SEM loads do
// measurable work).
func TestLoadTimeDuration(t *testing.T) {
	g := NewGraph(1<<7, GenerateRMAT(7, 4, 4), Directed)
	eng, err := Open(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var d time.Duration = eng.LoadTime()
	if d < 0 {
		t.Fatalf("LoadTime = %v, want >= 0", d)
	}
}

// TestCatalogSharesOneSubstrate opens two graphs through a Catalog and
// proves they share one SAFS instance and page cache: both engines
// report the same FS, runs on both succeed, and the shared cache sees
// traffic from each graph's files.
func TestCatalogSharesOneSubstrate(t *testing.T) {
	cat := NewCatalog(Options{CacheBytes: 1 << 20})
	defer cat.Close()

	gA := NewGraph(1<<7, GenerateRMAT(7, 5, 5), Directed)
	gB := NewGraph(1<<6, GenerateRMAT(6, 4, 6), Directed)
	engA, err := cat.Add("a", gA)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := cat.Add("b", gB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("a", gA); err == nil {
		t.Fatal("duplicate catalog name accepted")
	}
	if _, err := cat.Add("", gA); err == nil {
		t.Fatal("empty catalog name accepted")
	}
	if names := cat.Graphs(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Graphs() = %v", names)
	}
	if engA.Shared().FS() == nil || engA.Shared().FS() != engB.Shared().FS() {
		t.Fatal("catalog engines must share one SAFS instance")
	}

	bfs := NewBFS(0)
	if _, err := engA.Run(bfs); err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank()
	if _, err := engB.Run(pr); err != nil {
		t.Fatal(err)
	}
	if rs := bfs.Result(); rs == nil || len(rs.Vectors()) == 0 {
		t.Fatal("bfs produced no typed result")
	}
	cs := cat.FS().Cache().Stats()
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("no traffic on the shared page cache")
	}

	// Engine.Close on a catalog engine must not tear down the shared
	// substrate; graph B keeps working after A's engine is closed.
	engA.Close()
	if _, err := engB.Run(NewWCC()); err != nil {
		t.Fatalf("graph b after closing a's engine: %v", err)
	}
	cat.Close()
	cat.Close() // catalog Close is idempotent too
}

// TestCatalogClosedRejectsAdd pins the closed-catalog error path.
func TestCatalogClosedRejectsAdd(t *testing.T) {
	cat := NewCatalog(Options{})
	cat.Close()
	if _, err := cat.Add("late", NewGraph(4, []Edge{{Src: 0, Dst: 1}}, Directed)); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

// TestInMemoryWithStoreDirRejected: InMemory has no devices, so a
// StoreDir beside it contradicts it. Open and the first Catalog.Add
// refuse the pair and name both fields rather than ignore StoreDir.
func TestInMemoryWithStoreDirRejected(t *testing.T) {
	opts := Options{InMemory: true, StoreDir: t.TempDir()}
	g := NewGraph(4, []Edge{{Src: 0, Dst: 1}}, Directed)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "InMemory") || !strings.Contains(err.Error(), "StoreDir") {
			t.Fatalf("%s with InMemory and StoreDir: err = %v, want one naming both fields", what, err)
		}
	}
	eng, err := Open(g, opts)
	if err == nil {
		eng.Close()
	}
	check("Open", err)
	cat := NewCatalog(opts)
	defer cat.Close()
	_, err = cat.Add("g", g)
	check("Catalog.Add", err)
}

// TestNegativeThreadsOrDevicesRejected: a negative Threads or Devices
// would size a slice with it and panic. Open and the first Catalog.Add
// refuse it with an error naming the field.
func TestNegativeThreadsOrDevicesRejected(t *testing.T) {
	g := NewGraph(4, []Edge{{Src: 0, Dst: 1}}, Directed)
	for field, opts := range map[string]Options{
		"Threads": {Threads: -1},
		"Devices": {Devices: -2},
	} {
		eng, err := Open(g, opts)
		if err == nil {
			eng.Close()
		}
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("Open with %s < 0: err = %v, want one naming %s", field, err, field)
		}
		cat := NewCatalog(opts)
		_, err = cat.Add("g", g)
		cat.Close()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("Catalog.Add with %s < 0: err = %v, want one naming %s", field, err, field)
		}
	}
}

// TestCatalogStoreDir drives the public API over file-backed devices:
// an image added with AddFile answers BFS and PageRank with the checksums
// of an in-memory run, one non-empty file backs each device, and a
// StoreDir that is a regular file fails the first Add.
func TestCatalogStoreDir(t *testing.T) {
	dir := t.TempDir()
	// ≈ 1 MiB of edge lists: more than one 128 KiB stripe per device.
	g := NewGraph(1<<12, GenerateRMAT(12, 32, 3), Directed)
	path := filepath.Join(dir, "g.fg")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	cat := NewCatalog(Options{StoreDir: store, Threads: 2})
	defer cat.Close()
	eng, err := cat.AddFile("g", path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open(g, Options{InMemory: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for _, mk := range []func() Algorithm{
		func() Algorithm { return NewBFS(0) },
		func() Algorithm { return NewPageRank() },
	} {
		onFiles, inMem := mk(), mk()
		if _, err := eng.Run(onFiles); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Run(inMem); err != nil {
			t.Fatal(err)
		}
		got := onFiles.(interface{ Result() *ResultSet }).Result().Checksum()
		want := inMem.(interface{ Result() *ResultSet }).Result().Checksum()
		if got != want {
			t.Fatalf("%T over StoreDir: checksum %s, in-memory %s", onFiles, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		fi, err := os.Stat(filepath.Join(store, fmt.Sprintf("ssd%d.dat", i)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty: device %d holds no edge data", fi.Name(), i)
		}
	}

	notDir := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := NewCatalog(Options{StoreDir: notDir})
	defer bad.Close()
	if _, err := bad.Add("g", g); err == nil {
		t.Fatal("Add accepted a StoreDir that is a regular file")
	}
}

// spinAlgo keeps vertex 0 active until its query is canceled and
// closes started from its first Run.
type spinAlgo struct {
	started chan struct{}
	once    sync.Once
}

func (a *spinAlgo) Init(eng RunContext)                     { eng.ActivateSeed(0) }
func (a *spinAlgo) RunOnVertex(*Ctx, VertexID, *PageVertex) {}
func (a *spinAlgo) RunOnMessage(*Ctx, VertexID, Message)    {}
func (a *spinAlgo) Run(ctx *Ctx, v VertexID) {
	a.once.Do(func() { close(a.started) })
	time.Sleep(time.Millisecond)
	ctx.Activate(v)
}

// TestServerCancelRunningQuery: an in-process caller stops a running
// query through Server.Cancel, as DELETE /queries/{id} does over HTTP.
func TestServerCancelRunningQuery(t *testing.T) {
	cat := NewCatalog(Options{})
	defer cat.Close()
	if _, err := cat.Add("g", NewGraph(4, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, Directed)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cat, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spin := &spinAlgo{started: make(chan struct{})}
	if err := srv.Register(AlgorithmSpec{Name: "spin", New: func(json.RawMessage, GraphMeta) (Program, error) {
		return spin, nil
	}}); err != nil {
		t.Fatal(err)
	}
	id, err := srv.Submit(Request{Algo: "spin"})
	if err != nil {
		t.Fatal(err)
	}
	<-spin.started
	if err := srv.Cancel(id); err != nil {
		t.Fatal(err)
	}
	q, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.State != QueryFailed || !q.Canceled {
		t.Fatalf("query = state %s canceled %v, want failed and canceled", q.State, q.Canceled)
	}
}

// TestRunFollowsLayout: Run takes its engine from the graph's layout.
// PageRank on a block copy of a graph sweeps on the SpMV engine and
// answers with the raw copy's checksum; BFS and personalized PageRank,
// which have no SpMV form, are refused on the block copy.
func TestRunFollowsLayout(t *testing.T) {
	raw := NewGraph(1<<9, GenerateRMAT(9, 6, 3), Directed)
	var buf bytes.Buffer
	if err := raw.SaveAs(&buf, EncodingBlock); err != nil {
		t.Fatal(err)
	}
	block, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checksums := map[EngineKind]string{}
	for _, g := range []*Graph{raw, block} {
		eng, err := Open(g, Options{Threads: 2, Devices: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		pr := NewPageRank()
		st, err := eng.Run(pr)
		if err != nil {
			t.Fatalf("pagerank on %s: %v", g.Encoding(), err)
		}
		checksums[EngineKind(st.Engine)] = pr.Result().Checksum()
		if g == block {
			for _, p := range []Program{NewBFS(0), NewPPR(0)} {
				if _, err := eng.Run(p); err == nil || !strings.Contains(err.Error(), "SpMV engine") {
					t.Fatalf("%T on a block graph: %v, want a refusal naming the SpMV engine", p, err)
				}
			}
		}
	}
	if len(checksums) != 2 || checksums[EngineVertex] != checksums[EngineSpMV] {
		t.Fatalf("pagerank checksums by engine: %v, want one checksum from each engine", checksums)
	}
}
